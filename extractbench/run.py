"""Command line of the extraction benchmark; see ``bench.py``.

    python3 extractbench/run.py --workload mixed --seed 1 --seconds 24 --trace 0
"""

import os
import sys

# import the benchmark as a package from the checkout root, not as loose
# scripts from this directory
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from extractbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
