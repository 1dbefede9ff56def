"""The public API: each module's ``__all__``, re-exported by the package."""

import os
import re

import gwboot
from gwboot import bounds, critical, kernels, layered, offspring, simulate

MODULES = (offspring, kernels, critical, bounds, simulate, layered)

# names taken off __all__ that other gwboot modules still import
INTERNAL = {
    offspring: ["pruned_threshold"],
    bounds: ["alpha_bound_constant", "ub_regular_rd"],
    simulate: ["check_estimate_args", "expected_tree_size", "block_size"],
}

# names deleted because another public call returns the same value, or no caller is left
DELETED = {
    offspring: ["prune_eta"],
    kernels: ["G_on_grid"],
    critical: ["Q_ITERATION_CAP"],
    bounds: ["lb_alpha_moment", "lb_second_moment", "lb_second_moment_weak", "ub_fort", "ub_fort_weak"],
}


def test_package_all_is_the_union_of_the_modules_all():
    union = [name for mod in MODULES for name in mod.__all__]
    assert len(set(union)) == len(union)
    assert gwboot.__all__ == union


def test_every_listed_name_resolves():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(gwboot, name) is getattr(mod, name), (mod.__name__, name)
    for mod, names in INTERNAL.items():
        for name in names:
            assert hasattr(mod, name) and name not in mod.__all__, (mod.__name__, name)
            assert not hasattr(gwboot, name), name


def test_deleted_names_are_gone():
    for mod, names in DELETED.items():
        for name in names:
            assert not hasattr(mod, name) and not hasattr(gwboot, name), name
    # no law has a truncation cutoff, and the shifted laws' shared base neither
    # sums a moment nor refuses: each law does both itself
    for spec in ("regular:b=3", "twopoint:b=4,a=9", "pmf:2=0.5,4=0.5", "heavy:r=2", "pruned:r=2,b=8",
                 "poisson:b=4", "geometric:b=4"):
        assert not hasattr(offspring.make_distribution(spec), "truncation_cutoff"), spec
    assert "_expect" not in vars(offspring._LightTail)
    assert "refuse_past_cap" not in vars(offspring._LightTail)


def test_readme_lists_the_public_names_per_module():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        section = fh.read().split("## Python API", 1)[1].split("\n## ", 1)[0]
    for mod in MODULES:
        line = re.search(rf"^- `{mod.__name__}`:(.*)$", section, re.M)
        assert line, mod.__name__
        assert re.findall(r"`(\w+)`", line.group(1)) == mod.__all__, mod.__name__
