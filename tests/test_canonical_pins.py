"""Canonical and Schmidt forms pinned to their recorded values.

The digests below were produced by the column-loop gauge fix of
deterministic_eigh, the per-element channel state and the trace-loop
coefficient matrix. Any rewrite of those must reproduce every value,
gauge included, within 1e-12.
"""
import numpy as np
import pytest

from evometry import canonical_kraus, choi, named_channel, operator_schmidt
from evometry.channels import KrausMap
from evometry.gates import CNOT, SWAP
from evometry.linalg import deterministic_eigh, random_unitary

ATOL = 1e-12

# (d, k, seed): d columns of a Haar unitary on C^(d k), cut into k elements
MAPS = {
    "random-d2-k3": (2, 3, 31),
    "random-d4-k5": (4, 5, 32),
    "random-d8-k6": (8, 6, 33),
    "random-d16-k2": (16, 2, 34),     # 254-wide null block
}
NAMED = {
    "depolarizing": "depolarizing:0.3",
    "dephasing": "dephasing:0.5",
    "swap": "unitary:SWAP",
    "cnot": "unitary:CNOT",
}
# (dA, dB, seed) for a Haar unitary, or a named gate on two qubits
SCHMIDT = {
    "random-2x2": (2, 2, 41),
    "random-3x3": (3, 3, 42),
    "random-4x4": (4, 4, 43),
    "random-8x8": (8, 8, 44),
    "random-2x4": (2, 4, 45),
    "random-3x2": (3, 2, 46),
    "swap": SWAP,
    "cnot": CNOT,
}


def _random_map(d, k, seed):
    iso = random_unitary(d * k, seed)[:, :d]
    return KrausMap(tuple(iso.reshape(k, d, d)))


def _map_for(key):
    return _random_map(*MAPS[key]) if key in MAPS else named_channel(NAMED[key])


def _schmidt_for(key):
    spec = SCHMIDT[key]
    if isinstance(spec, tuple):
        da, db, seed = spec
        return operator_schmidt(random_unitary(da * db, seed), dims=(da, db))
    return operator_schmidt(spec)


def _digest(a):
    """Two seeded random projections of all entries of a, on the scale
    of one entry.

    The weights are complex normal over sqrt(N) for N entries, so
    rounding of size eps in every entry moves a projection by about eps,
    while a regauged eigenvector or operator moves it by about its own
    change over sqrt(N). The seed is N, so a change of shape changes the
    digest as well.
    """
    x = np.asarray(a, dtype=complex).ravel()
    g = np.random.default_rng(x.size).normal(size=(2, x.size, 2)) @ [1, 1j]
    return g @ x / np.sqrt(x.size)


def _assert_digest(a, want):
    assert np.abs(_digest(a) - np.array(want)).max() <= ATOL


# (digest of eigenvalues, digest of eigenvectors)
EIGH = {
    "random-d2-k3": (
        [(-0.07799201019605889+0.04120883049603538j),
         (-0.40403426213411914+0.32636516707509283j)],
        [(0.6186499216250468-0.749818516734521j),
         (-0.29298910114105103-0.39369029335308214j)],
    ),
    "random-d4-k5": (
        [(0.0995538766793869+0.06973952840937352j),
         (-0.014374596375513346+0.17580003797040805j)],
        [(0.0567085015720031-0.07090555190925288j),
         (-0.3828076802595294-0.23993720512244712j)],
    ),
    "random-d8-k6": (
        [(-0.04864161556711019+0.019806022612851224j),
         (-0.07186430797274124-0.053161620540602056j)],
        [(0.020378889213333612+0.182146358064122j),
         (0.20269141184355913+0.2164020504872998j)],
    ),
    "random-d16-k2": (
        [(0.0828841884336493-0.05298666103093682j),
         (0.024339748324822566-0.04801538581731418j)],
        [(-0.0005437678407776356+0.11211616730262919j),
         (-0.03086875116762614+0.02196799277296379j)],
    ),
    "depolarizing": (
        [(-0.2751117107938488-0.03760635044202555j),
         (-0.6584636694880334+0.25639542045927216j)],
        [(-0.11103101869091923+0.7762917626117756j),
         (-0.49046917319873995+0.5082893031194594j)],
    ),
    "dephasing": (
        [(0.25298320969487675+0.12110761437661946j),
         (-0.34320171636223357+0.4543494770770785j)],
        [(0.0015992702295676564+0.150801167372753j),
         (0.2753741732198918+0.28858707706068365j)],
    ),
    "swap": (
        [(-0.14868092446009418+0.15769587185495912j),
         (0.09351310528152013+0.3770138147393346j)],
        [(0.594446698121726-0.13573755212135302j),
         (0.16892733723902026-0.3035444716289886j)],
    ),
    "cnot": (
        [(-0.14868092446009418+0.15769587185495912j),
         (0.09351310528152013+0.3770138147393346j)],
        [(0.524753567277779-0.12933012948855221j),
         (0.031013353975239556-0.27705557330601277j)],
    ),
}

# (digest of probabilities, digest of stacked operators)
CANONICAL = {
    "random-d2-k3": (
        [(0.702738339431954-0.9545769165861159j),
         (-0.7871508599631752+0.42623416039942386j)],
        [(0.06779059610018127+0.16537859933154483j),
         (-0.37747370999397906-0.28574554728416157j)],
    ),
    "random-d4-k5": (
        [(-0.05202563145336771-0.13530299470584428j),
         (-0.07238058149137486-0.2570582300005792j)],
        [(-0.2815534390562148-0.0019012460780580085j),
         (-0.22833773299588017+0.21480595747006467j)],
    ),
    "random-d8-k6": (
        [(-0.010843859433118684+0.31830808149338363j),
         (-0.09707398211426232+0.3228588125555937j)],
        [(0.041271618747643915+0.295901911242066j),
         (-0.2172729651002388-0.003914656399632575j)],
    ),
    "random-d16-k2": (
        [(-0.0631668616923033-0.9969184335447573j),
         (0.5778245767199289+0.6879672982697705j)],
        [(0.18922462165316942-0.18147234790179023j),
         (-0.16323502583874028+0.15916284939174533j)],
    ),
    "depolarizing": (
        [(-0.2751117107938488-0.03760635044202555j),
         (-0.6584636694880334+0.25639542045927216j)],
        [(-0.2519010034781154-0.09697398494531148j),
         (0.5799118860313177+0.43531497710153855j)],
    ),
    "dephasing": (
        [(-0.07919955216044747-1.0480085550680744j),
         (0.5212382998856204+0.6781056658608449j)],
        [(-0.8456505423057575-0.256782874480501j),
         (-0.3196531008662815-0.2833204100473182j)],
    ),
    "swap": (
        [(0.3455841920647862+0.8216181435011587j),
         (0.3304370761833873-1.3031572316043616j)],
        [(-0.36690131577591634+0.5583810859901472j),
         (0.2345641997124575+1.1098007234566276j)],
    ),
    "cnot": (
        [(0.3455841920647862+0.8216181435011587j),
         (0.3304370761833873-1.3031572316043616j)],
        [(0.05623787427363971-0.4597664360161051j),
         (0.4731721357795224+0.5351825758883378j)],
    ),
}

# (digests of values, of ops_a, of ops_b)
SCHMIDT_PINS = {
    "random-2x2": (
        [(-0.02707127544757426+0.16216057987883808j),
         (-0.6272616853147412+0.9360832299357205j)],
        [(-0.5109877618834191+0.1032788201090658j),
         (0.02070307499472837+0.0761507416041845j)],
        [(0.729770030743939+1.1316862396926974j),
         (-1.1526589789074975-0.6528507506098749j)],
    ),
    "random-3x3": (
        [(-0.3430611202095005+0.27617649160544255j),
         (-0.3158531998644266+0.3876784276952756j)],
        [(1.496533047999428-0.6698353451776554j),
         (-0.5109271836763082-0.6334990183804625j)],
        [(0.437132444245736+0.05777993133899673j),
         (-0.40124759309640645+0.5930394561994694j)],
    ),
    "random-4x4": (
        [(0.06430915221699211+0.10186580920028682j),
         (0.1579373860005397+0.3244244221435792j)],
        [(-0.7226077483551845-0.4483508402368086j),
         (-0.420841298827686-0.5902749185872015j)],
        [(-0.2820020376150476+0.3508795324107105j),
         (-0.0519320801357786+0.815712030927257j)],
    ),
    "random-8x8": (
        [(0.08475217639578853+0.1911991786460725j),
         (-0.17789722549227385-0.08300011439784973j)],
        [(0.01844379618757204-0.019349000799296218j),
         (0.5244397632668184-0.3043117403812924j)],
        [(0.41109207407473203-0.2483072125510194j),
         (-0.02002166207443961+0.07413782096308158j)],
    ),
    "random-2x4": (
        [(-0.2361704140960803+0.1471557020086425j),
         (-0.6652158674783263+1.0410846034837307j)],
        [(0.20849572122668736-0.3536446901200797j),
         (-0.22924438723454227-0.008192013571196588j)],
        [(-0.3861604364746515+0.12943023231961664j),
         (-0.702947639319491-0.4150173498355852j)],
    ),
    "random-3x2": (
        [(-0.2513624120835918+0.1397194049320708j),
         (-0.6838245922447179+1.0279622062477536j)],
        [(0.20176158042451378+1.042512351857696j),
         (0.060197361926382545+0.3186444850614708j)],
        [(-0.6156275995924367+0.02072931819433771j),
         (0.8880290424225648-0.3842884446643588j)],
    ),
    "swap": (
        [(-0.3132320491983832+0.15696467914664305j),
         (-0.6373196334853162+1.145168423682496j)],
        [(-0.06611931694599718+0.251461298023802j),
         (1.4171418474773705-0.14706630640574098j)],
        [(-0.06611931694599718+0.251461298023802j),
         (1.4171418474773705-0.14706630640574098j)],
    ),
    "cnot": (
        [(-0.11200508079918017-1.4821079120603013j),
         (0.7371422729265388+0.958986229382445j)],
        [(-0.38362446962260455+0.11980668410827593j),
         (-0.33204950135357736+1.344136440135259j)],
        [(-1.9232988281828374-0.10834973456786827j),
         (-0.2912300666086278-0.6239545913389596j)],
    ),
}


@pytest.mark.parametrize("key", list(MAPS) + list(NAMED))
def test_deterministic_eigh_of_channel_state(key):
    w, v = deterministic_eigh(choi(_map_for(key)).matrix)
    want_w, want_v = EIGH[key]
    _assert_digest(w, want_w)
    _assert_digest(v, want_v)


@pytest.mark.parametrize("key", list(MAPS) + list(NAMED))
def test_canonical_kraus_operators(key):
    canon = canonical_kraus(_map_for(key))
    want_p, want_ops = CANONICAL[key]
    _assert_digest(canon.probabilities, want_p)
    _assert_digest(canon.operators, want_ops)


@pytest.mark.parametrize("key", list(SCHMIDT))
def test_operator_schmidt_values_and_ops(key):
    s = _schmidt_for(key)
    want_v, want_a, want_b = SCHMIDT_PINS[key]
    _assert_digest(s.values, want_v)
    _assert_digest(s.ops_a, want_a)
    _assert_digest(s.ops_b, want_b)


def _straddling_map(eps=5e-11):
    """M0 = sqrt(1 - eps) U, M1 = sqrt(eps) V at d = 4.

    The channel state's small weight (about eps) is kept, yet it lies
    within the 1e-10 degeneracy tolerance of the null block, so one
    degenerate group holds kept and trimmed eigenvectors at once.
    """
    u, v = random_unitary(4, 51), random_unitary(4, 52)
    return KrausMap((np.sqrt(1 - eps) * u, np.sqrt(eps) * v))


@pytest.mark.parametrize("key", list(MAPS) + ["depolarizing", "straddling"])
def test_canonical_kraus_is_the_trimmed_gauged_eigensystem(key):
    m = _straddling_map() if key == "straddling" else _map_for(key)
    d = m.dim
    w, v = deterministic_eigh(choi(m).matrix)
    keep = w > 1e-12
    if key == "straddling":
        assert 0 < w[keep][-1] - w[~keep][0] <= 1e-10
    want_ops = (v[:, keep] * np.sqrt(d * w[keep])).T.reshape(-1, d, d)
    canon = canonical_kraus(m)
    assert canon.probabilities.shape == w[keep].shape
    assert np.abs(canon.probabilities - w[keep]).max() <= ATOL
    assert np.abs(np.stack(canon.operators) - want_ops).max() <= ATOL
