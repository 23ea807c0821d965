"""Relational substrate: schemas, instances, algebra, and isomorphisms."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".schema": ("RelationSchema", "DatabaseSchema"),
    ".instance": ("Relation", "Database"),
    ".isomorphism": (
        "apply_mapping", "random_bijection", "is_isomorphic_image",
    ),
})
__all__.append("algebra")
