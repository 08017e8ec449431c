"""Groupoid convolution algebras on finite differential spaces.

The pipeline: a finite measured point set with generating functions
(:mod:`~ncgroupoid.diffspace`) induces a gluing relation whose pair
groupoid (:mod:`~ncgroupoid.groupoid`) carries a convolution *-algebra
with first-order jets (:mod:`~ncgroupoid.algebra`).  Derivations of the
base lift to that algebra (:mod:`~ncgroupoid.calculus`); the algebra
acts fiberwise as a measurable field of matrices
(:mod:`~ncgroupoid.representation`); states and commutant closures turn
the fields into a noncommutative probability space
(:mod:`~ncgroupoid.vonneumann`); and the deformation chain walks from
the fully glued structure to the fully resolved one
(:mod:`~ncgroupoid.deform`).

``import ncgroupoid`` loads spaces, relations and the gallery.  Every
other layer loads when one of its names is first read, and ``import
ncgroupoid.cli`` loads all layers.
"""

__version__ = "0.1.0"

# each layer -> the public names it defines
_LAYERS = {
    "algebra": ("AlgebraElement", "BaseFunction", "Jet", "arrow_basis", "convolve",
                "from_expression", "involution", "max_diff", "module_action",
                "random_element", "unit"),
    "calculus": ("Derivation", "commutator_apply", "commutator_defect", "leibniz_defect",
                 "lift_horizontal", "lift_symmetrized", "lift_vertical"),
    "deform": ("DeformationChain", "deformation_chain", "homomorphism_defect_chain",
               "restrict", "step_n_pointwise_check"),
    "diffspace": ("ConfigError", "DiffSpace", "GeneratorFunction", "Partition", "Point",
                  "build_space", "classes_are_fibers", "consistent_family",
                  "hausdorff_relation", "load_config", "quotient"),
    "gallery": ("gallery", "gallery_config"),
    "groupoid": ("Groupoid", "build_groupoid"),
    "representation": ("RandomOperator", "homomorphism_defect", "represent", "star_defect"),
    "vonneumann": ("MAX_TOTAL_DIM", "DensityField", "big_matrix", "double_commutant",
                   "expect", "make_state"),
}
# each public name -> its home module
_HOME = {name: module for module, names in _LAYERS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    # __import__ rather than importlib.import_module, so that `python -X importtime`
    # lists each layer it loads
    if name in _HOME:  # from .layer import name
        layer = __import__(_HOME[name], globals(), None, (name,), 1)
        value = globals()[name] = getattr(layer, name)
        return value
    if name in _LAYERS:  # a layer read as an attribute; importing it binds it here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


# The base layer binds now.  The gallery must: importing a submodule sets the
# package attribute of its name to the module, and only the first import does,
# so the function bound after it here stays `ncgroupoid.gallery`.
for _name in _LAYERS["diffspace"] + _LAYERS["gallery"]:
    __getattr__(_name)
del _name
