"""Sliding-window shift dynamics over GF(2), verified at finite level.

The package classifies word dictionaries and the block maps they induce,
decides when two such maps admit unique completion of commuting squares,
and realizes the associated isometries as exact finite matrices so the
defining operator relations can be checked without any floating point.

`import starshift` runs none of the eight submodules.  It registers each of
them, and numpy, in `sys.modules` as a lazy module (`starshift._lazy`) that
runs at its first attribute access, and serves the public names of `_EXPORTS`
through a module `__getattr__` (PEP 562).  So a command runs only the
modules it calls: `verify` alone builds the operator model of `cylinder`
and `matrixmodel`.
"""

from ._lazy import lazy_module

budget = lazy_module(__name__ + ".budget")
words = lazy_module(__name__ + ".words")
gf2poly = lazy_module(__name__ + ".gf2poly")
dictionary = lazy_module(__name__ + ".dictionary")
ledrappier = lazy_module(__name__ + ".ledrappier")
starcomm = lazy_module(__name__ + ".starcomm")
cylinder = lazy_module(__name__ + ".cylinder")
matrixmodel = lazy_module(__name__ + ".matrixmodel")

# Each submodule and the public names it defines.
_EXPORTS = {
    budget: "FrameTooLarge KernelTooLarge LevelTooLarge OverBudget PatchTooLarge WindowTooLarge WindowTooSmall",
    words: "PeriodicSeq Word",
    gf2poly: "Factorization Gf2Poly ZeroPolynomial poly_factor poly_gcd recurrence_kernel",
    dictionary: (
        "FILTERS ClassificationRecord Dictionary NotProgressive WindowMap WordTooShort"
        " apply_window_map classify_dictionary enumerate_dictionaries kernel_elements"
    ),
    ledrappier: "BASIC_BLOCKS LEDRAPPIER TrianglePatch complete_patch conjugate_vertical stack_orbit",
    starcomm: (
        "DynamicalSystem FiniteMapPair IndependenceProfile InvalidSystem MinimalityResult"
        " MonoidElement NonCommutingMaps StarDecision SystemCertificate TopFreeResult"
        " certify_system independence_profile is_minimal is_topologically_free"
        " star_commute_finite star_commute_windows star_commutes_on_kernel"
    ),
    cylinder: (
        "CylinderFunction NotAFrame NumeratorOverflow QuadScalar alpha basis expectation"
        " inner_product refine_frame standard_frame transfer verify_frame"
    ),
    matrixmodel: (
        "BumpReport DefectReport LevelOperator LevelTooSmall NoSeparation RelationReport"
        " annihilating_bump expectation_defect isometry_matrix verify_relations"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, read from its module at each access, which runs the module the first time."""
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(_MODULE_OF[name], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
