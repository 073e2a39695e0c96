"""The two disagreement errors: a criterion or a pi1 computation that
contradicts another is a bug in the package, raised loudly, never
reconciled.  Each message ends with a command that reproduces it.

They live apart from the layers that raise them so that catching them
(the CLI maps both to exit code 3) loads no layer.
"""

from __future__ import annotations


class CriteriaDisagreement(RuntimeError):
    """Raised when the three semi-simplicity criteria fail to agree."""

    def __init__(self, n, ell, chi, verdict_roots, verdict_hecke, verdict_counting):
        self.n, self.ell, self.chi = n, ell, chi
        self.verdict_roots, self.verdict_hecke = verdict_roots, verdict_hecke
        self.verdict_counting = verdict_counting
        # `--chi=` keeps a leading minus sign from reading as an option.
        super().__init__(
            f"criteria disagree at n={n}, ell={ell}, chi={chi}: "
            f"roots={verdict_roots}, hecke={verdict_hecke}, "
            f"counting={verdict_counting}; reproduce with: "
            f"cyclocone semisimple -n {n} -l {ell} --chi={chi}"
        )


class Pi1Disagreement(RuntimeError):
    """Raised when the closed-form pi1 of an orbit label differs from the
    Smith normal form of its string-vector matrix."""

    def __init__(self, label, closed_form, smith):
        # Partition texts hold digits, commas, brackets and semicolons only,
        # so single quotes make them one shell word each.
        super().__init__(
            f"pi1 of {label} at ell={label.ell} disagrees: "
            f"closed form {closed_form}, Smith normal form {smith}; "
            f"reproduce with: cyclocone pi1 -n {label.n} -l {label.ell} "
            f"--lambda '{label.lam}' --nu '{label.nu}'"
        )
