import numpy as np
import pytest

from sliceshare.model import (Resource, SliceSpec, UserClass, Instance,
                              ValidationError, validate_instance,
                              PopulationState, scwa_weights,
                              feasibility_report)
from conftest import make_instance


def test_canonicalization_rescales_capacity():
    inst = make_instance(
        [("r1", 4.0)], [("s1", 1.0)], [("c1", "s1", {"r1": 2.0})])
    assert inst.resources[0].capacity == 1.0
    assert inst.classes[0].demand["r1"] == pytest.approx(0.5)


def test_share_normalization():
    inst = make_instance(
        ["r1"], [("s1", 2.0), ("s2", 6.0)],
        [("c1", "s1", {"r1": 1.0}), ("c2", "s2", {"r1": 1.0})])
    assert inst.shares_array == pytest.approx([0.25, 0.75])


def test_validation_is_idempotent(three_user):
    assert validate_instance(three_user) == three_user


@pytest.mark.parametrize("mutate,msg", [
    (lambda i: Instance((), i.slices, i.classes), "at least one resource"),
    (lambda i: Instance(i.resources, i.slices, ()), "at least one user class"),
    (lambda i: Instance(i.resources + (Resource("r1"),), i.slices, i.classes),
     "duplicate resource"),
    (lambda i: Instance(i.resources, i.slices + (SliceSpec("s9", -1.0),),
                        i.classes), "share"),
    (lambda i: Instance(i.resources, i.slices,
                        i.classes + (UserClass("cX", "nope", {"r1": 1.0}),)),
     "unknown slice"),
    (lambda i: Instance(i.resources, i.slices,
                        i.classes + (UserClass("cX", "s1", {}),)),
     "empty demand"),
    (lambda i: Instance(i.resources, i.slices,
                        i.classes + (UserClass("cX", "s1", {"r1": 0.0}),)),
     "all-zero demand"),
    (lambda i: Instance(i.resources, i.slices,
                        i.classes + (UserClass("cX", "s1", {"r1": -0.2}),)),
     ">= 0"),
    (lambda i: Instance(i.resources, i.slices,
                        i.classes + (UserClass("bad id!", "s1", {"r1": 1.0}),)),
     "id"),
    (lambda i: Resource("r1", 0.0), "capacity must be finite and > 0"),
    (lambda i: UserClass("cX", "s1", {"r1": 1.0}, workload="weibull"), "workload"),
    (lambda i: Instance((Resource("r1", 1e-320),), i.slices, i.classes),
     "demand must be finite and >= 0, got inf"),
    (lambda i: Instance(i.resources, (SliceSpec("s1", 1e308), SliceSpec("s2", 1e308)),
                        i.classes), "share must be finite and > 0, got 0.0"),
])
def test_validation_rejections(single_resource, mutate, msg):
    with pytest.raises(ValidationError, match=msg):
        validate_instance(mutate(single_resource))


def test_identical_demand_classes_are_kept_distinct(three_user):
    # u2 and u3 have the same demand vector but stay separate classes
    assert three_user.n_classes == 3
    assert three_user.class_ids == ("u1", "u2", "u3")
    D = three_user.demand_matrix
    assert np.array_equal(D[1], D[2])


def test_demand_matrix_layout(three_user):
    D = three_user.demand_matrix
    assert D.shape == (3, 5)
    assert D[0, 0] == 1.0 and D[0, 1] == 1.0 and D[0, 2] == 0.0
    assert D[1, 0] == pytest.approx(0.6)
    assert not D.flags.writeable


def test_slice_groupings(three_user):
    assert three_user.slice_classes == ((0, 1), (2,))
    assert list(three_user.class_slice) == [0, 0, 1]


def test_population_helpers(three_user):
    pop = PopulationState.from_dict(three_user, {"u1": 2, "u3": 1})
    assert pop.counts == (2, 0, 1)
    assert pop.slice_counts(three_user) == (2, 1)
    with pytest.raises(ValidationError, match="unknown classes"):
        PopulationState.from_dict(three_user, {"zz": 1})
    with pytest.raises(ValidationError, match=">= 0"):
        PopulationState((1, -1, 0)).check(three_user)


def test_scwa_weights_equal_intra_slice(three_user):
    pop = PopulationState((1, 1, 1))
    q = scwa_weights(three_user, pop)
    assert q.values == pytest.approx((0.25, 0.25, 0.5))
    sums = [sum(q.values[i] for i in idx) for idx in three_user.slice_classes]
    assert sums == pytest.approx([0.5, 0.5])
    # weight scales with class population
    q2 = scwa_weights(three_user, PopulationState((3, 1, 1)))
    assert q2.values == pytest.approx((0.375, 0.125, 0.5))


def test_scwa_weights_idle_slice_keeps_share(three_user):
    q = scwa_weights(three_user, PopulationState((1, 1, 0)))
    assert q.values == pytest.approx((0.25, 0.25, 0.0))


def test_feasibility_report_worked_example(three_user):
    rep = feasibility_report(three_user, (0.4, 0.5, 0.5))
    assert rep.feasible
    assert rep.usage["r1"] == 1.0  # 0.4 + 0.6*0.5 + 0.6*0.5, exactly
    assert rep.usage["r4"] == 1.0
    assert rep.usage["r2"] == pytest.approx(0.4)
    bad = feasibility_report(three_user, (0.4, 0.5, 0.6))
    assert not bad.feasible
    assert dict(bad.violations)["r1"] > 0
    with pytest.raises(ValidationError, match="length"):
        feasibility_report(three_user, (0.4, 0.5))
