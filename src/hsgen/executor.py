"""Two names of ``kernels``, kept here because the benchmark still reaches
them through this module.

``hsbench/bench.py`` imports ``hsgen.executor.ExecPolicy``, and its
tracer wraps ``executor.run_partitioned``; ``hsbench/test_hsbench.py``
reads those ``executor.run_partitioned`` spans.  Both names are the
``kernels`` objects themselves, and the tracer swaps its wrapper into
every ``hsgen`` module attribute that is the original function, so the
builder's calls are still traced.  Once the benchmark imports both from
``kernels`` and traces ``kernels.run_partitioned``, this module goes.
"""

from .kernels import ExecPolicy, run_partitioned
