"""Code generation from flowcharts.

``clower`` and ``exprlower`` are the expression dialects the runtime's
kernels are printed in (:mod:`repro.runtime.kernels`). ``cgen`` and
``pygen`` list those kernels for a whole module — ``generate_c`` the C
translation unit the native tier builds, ``generate_python`` the NumPy
tier's kernels — under a header holding the flowchart and the window
allocation (``listing``). A listing is the code that runs, never a second
translation of the module.
"""
