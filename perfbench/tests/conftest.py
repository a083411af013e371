"""Make the benchmark's modules and the ``repro`` sources importable.

Appended, not prepended: the repository root must keep resolving the
``tests`` package of the main suite first.
"""

import os
import sys

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(PERFBENCH), "src"), PERFBENCH):
    if path not in sys.path:
        sys.path.append(path)
