"""The public surface: ``quditshare.__all__`` and the README's Library API list."""

import os
import re

import quditshare
from quditshare import channels, damping, search

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

# one-point wrappers and second spellings kept off the surface, each by the
# module that held it
DELETED = {
    "damping_lambda_max": damping,
    "damping_negativity": damping,
    "damping_gap": damping,
    "damping_pt_spectrum": damping,
    "best_phiplus_fidelity_input": search,
    "haar_unitary": channels,
}


def _readme_api():
    """{module name: [names]} from the bullets of the README's Library API
    section, each "* `module`: `name`, ..." and wrapped over lines."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* `(quditshare\.\w+)`: (.*?)(?=^\* |^$)", section, re.M | re.S)
    return {module: re.findall(r"`(\w+)`", names) for module, names in bullets}


def test_all_is_sorted_resolves_and_equals_the_readme_list():
    names = quditshare.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(quditshare, name), name
    for name, module in DELETED.items():
        assert not hasattr(quditshare, name), name
        assert not hasattr(module, name), name
    # top_choi_eigenpair's return type stays in its module, off the surface
    assert not hasattr(quditshare, "TopChoiEigenpair")
    api = _readme_api()
    assert sorted(name for listed in api.values() for name in listed) == names
    for module, names_there in api.items():
        for name in names_there:
            assert getattr(quditshare, name).__module__ == module, name
