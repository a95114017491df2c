"""Turning instance documents into the program's instances.

Documents go through `persuade.instance_from_dict` (or `load_instance` for
a file), with one exception: the package's document loader rejects a type
id that repeats, even with identical utilities, so a prophet-secretary
prior whose distributions share types cannot be loaded from a document.
Such documents are built here from the package's public constructors, one
type object per id.
"""

from __future__ import annotations

import json
from fractions import Fraction


def shares_type_ids(doc: dict) -> bool:
    if doc.get("kind") != "prophet_secretary":
        return False
    ids = [t["id"] for dist in doc["dists"] for t in dist]
    return len(ids) != len(set(ids))


def _shared_prophet_secretary(doc: dict):
    import persuade as P

    types: dict[str, object] = {}

    def one(obj: dict):
        t = types.get(obj["id"])
        if t is None:
            t = types[obj["id"]] = P.ActionType(obj["id"], Fraction(obj["rho"]), Fraction(obj["xi"]))
        return t

    dists = tuple(tuple((one(o), Fraction(o["q"])) for o in dist) for dist in doc["dists"])
    return P.ProphetSecretaryInstance(dists=dists)


def load(doc: dict):
    import persuade as P

    if shares_type_ids(doc):
        return _shared_prophet_secretary(doc)
    return P.instance_from_dict(doc)


def load_file(path: str, shared: bool):
    """Load a document file; `shared` is `shares_type_ids` of its content."""
    import persuade as P

    if shared:
        with open(path) as fh:
            return _shared_prophet_secretary(json.load(fh))
    return P.load_instance(path)


def type_map(instance) -> dict:
    """Type id -> the instance's type object, read from its fields."""
    if hasattr(instance, "palette"):
        listed = [t for t, _ in instance.palette]
    elif hasattr(instance, "dists"):
        listed = [t for dist in instance.dists for t, _ in dist]
    elif hasattr(instance, "vectors"):
        listed = [t for vec in instance.vectors for t in vec]
    else:
        listed = [t for dist in instance.actions for t, _ in dist]
    return {t.id: t for t in listed}
