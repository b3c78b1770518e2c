from fractions import Fraction

import pytest

from adlab import IntegerLattice, integers, mult_embed, residues
from adlab.decompose import BetaDecomposition, BsgResult, RatioBoxResult
from adlab.dissociation import DissociationCertificate
from adlab.growth import FreimanModel, GrowthCurve
from adlab.modular import DirichletValue, FourierPeak, SubgroupSpec
from adlab.records import ClaimRecord, ExperimentReport, canonical, stable_dumps

# One instance of each result class that serializes by its fields, pinned to
# its canonical JSON, so that a renamed, dropped or reformatted field shows.
FIELD_SERIALIZED = [
    (
        DissociationCertificate("relation", 1, (-1, -1, 1), "subset-sum-distinctness", 4),
        '{"k":1,"method":"subset-sum-distinctness","relation":[-1,-1,1],"states_visited":4,'
        '"verdict":"relation"}',
    ),
    (GrowthCurve((3, 6, 7), truncated_at=4), '{"sizes":[3,6,7],"truncated_at":4}'),
    (
        FreimanModel(integers([1, 2, 10]), 7, {1: 3, 2: 6, 10: 2}, 2, 7, 3, 5, True),
        '{"attempts":5,"dilation":3,"l":2,"mapping":{"1":3,"10":2,"2":6},"modulus":7,'
        '"prime":7,"subset":[1,2,10],"verified":true}',
    ),
    (SubgroupSpec(7, 3, 2, residues([1, 2, 4], 7)), '{"generator":2,"members":[1,2,4],"p":7,"t":3}'),
    (
        DirichletValue(Fraction(2, 7), 1, 2, 7),
        '{"argmin_q":1,"exact":true,"modulus":7,"s":2,"value":"2/7"}',
    ),
    (FourierPeak(7, 3, 2 ** 0.5, 1), '{"argmax":1,"max_abs":1.41421356237,"modulus":7,"size":3}'),
    (
        BsgResult(integers([6, 7, 8]), -4, {"doubling": Fraction(5, 3), "h_size": 3}),
        '{"h":[6,7,8],"stats":{"doubling":"5/3","h_size":3},"x":-4}',
    ),
    (
        BetaDecomposition(integers([1, 2, 3]), {"beta_sq": Fraction(9, 2)}, "n"),
        '{"a_star":[1,2,3],"note":"n","stats":{"beta_sq":"9/2"}}',
    ),
    (RatioBoxResult(3, Fraction(1, 4), 7), '{"missing":"1/4","n":3,"ratio_count":7}'),
    (
        ExperimentReport(
            "e",
            "{3 elements, mod 7}",
            {"s": 2},
            {"curve": GrowthCurve((3, 6)), "dirichlet": DirichletValue(Fraction(1, 8), 2, 1, 8)},
            [ClaimRecord("c", "hard", "{3 elements, mod 7}", {"rhs": 1.0 / 3})],
        ),
        '{"instance":"{3 elements, mod 7}","measured":{"curve":{"sizes":[3,6],"truncated_at":null},'
        '"dirichlet":{"argmin_q":2,"exact":true,"modulus":8,"s":1,"value":"1/8"}},"name":"e",'
        '"params":{"s":2},"records":[{"claim":"c","class":"hard",'
        '"fitted_constant":null,"instance":"{3 elements, mod 7}","measured":{"rhs":0.333333333333},'
        '"note":"","violated":false}]}',
    ),
]


@pytest.mark.parametrize(
    "obj, pinned", FIELD_SERIALIZED, ids=[type(obj).__name__ for obj, _ in FIELD_SERIALIZED]
)
def test_field_serialized_results_keep_their_json(obj, pinned):
    assert stable_dumps(obj) == pinned


@pytest.mark.parametrize(
    "xs, pinned",
    [
        # No prime divides 1: its image is the origin of Z^1.
        ([1], {"primes": [], "image": [0], "forward": {"1": 0}, "backward": {"0": 1}}),
        # One prime: the exponent vectors collapse to ints on the line.
        (
            [1, 2, 4, 8],
            {
                "primes": [2],
                "image": [0, 1, 2, 3],
                "forward": {"1": 0, "2": 1, "4": 2, "8": 3},
                "backward": {"0": 1, "1": 2, "2": 4, "3": 8},
            },
        ),
    ],
    ids=["no_prime", "one_prime"],
)
def test_rank_one_embeddings_serialize_on_the_line(xs, pinned):
    emb = mult_embed(integers(xs))
    assert emb.image.ambient == IntegerLattice(1)
    assert canonical(emb) == dict(pinned, has_identity=True)


def test_dataclass_without_to_json_serializes_as_its_fields():
    emb = mult_embed(integers([1, 2, 3, 6]))
    assert canonical(emb) == {
        "primes": [2, 3],
        "image": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "forward": {"1": [0, 0], "2": [1, 0], "3": [0, 1], "6": [1, 1]},
        "backward": {"(0, 0)": 1, "(0, 1)": 3, "(1, 0)": 2, "(1, 1)": 6},
        "has_identity": True,
    }
