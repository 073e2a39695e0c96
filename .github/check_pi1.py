"""Check the closed-form pi1 against the Smith normal form on whole tables.

    PYTHONPATH=src:tests python .github/check_pi1.py N,ELL [N,ELL ...]

For every class mask of the string-class table of each (n, ell), compares
`orbits._class_set_pi1` with `abelian.cokernel` of the matrix with one
column per string vector of the mask (`tests/oracles.mask_vectors`).  It
prints one line per table and exits 0 only when no mask disagrees.
"""

import sys
import time

from cyclocone.abelian import IntMatrix, cokernel
from cyclocone.orbits import _class_set_pi1, _string_class_table
from oracles import mask_vectors


def main() -> int:
    failed = 0
    for arg in sys.argv[1:]:
        n, ell = map(int, arg.split(","))
        start = time.perf_counter()
        groups = _string_class_table(n, ell)[2]
        wrong = [
            mask
            for mask in groups
            if _class_set_pi1(ell, mask)
            != cokernel(IntMatrix.from_columns(mask_vectors(ell, mask), ell))
        ]
        elapsed = time.perf_counter() - start
        print(
            f"(n, ell) = ({n}, {ell}): {len(groups)} masks, "
            f"{len(wrong)} disagree, {elapsed:.1f} s"
        )
        for mask in wrong[:5]:
            print(f"  mask {mask:#x} disagrees")
        failed += len(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
