import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from foldkit.codec import (DEFAULT_GEOMETRY, EncodedProtein, InternalCoords,
                           backbone_walk, decode, dequantise,
                           dequantise_bond_angles, dequantise_torsions, encode,
                           from_internal, nerf_place, quantise_bond_angles,
                           quantise_torsions, to_internal)
from foldkit.errors import (BadMagic, ChainTooShort, DegenerateFrame,
                            DegenerateGeometry, FoldkitError, TruncatedPayload,
                            VersionMismatch)
from foldkit.geometry import (backbone_array, backbone_dihedrals, bond_angle,
                              dihedral, kabsch)
from foldkit.rng import make_rng
from foldkit.synth import (default_anchor, helix_chain, make_internal,
                           random_chain, single_chain_structure)

from helpers import (angle_close, backbone_walk_oracle, jittered_chain,
                     nerf_place_oracle, random_rotation, transform_structure,
                     with_atom)


# Where each per-residue angle lives in InternalCoords: (field, column).
_COLUMNS = {"phi": ("torsions", 0), "psi": ("torsions", 1),
            "omega": ("torsions", 2), "theta_n": ("angles", 0),
            "theta_ca": ("angles", 1), "theta_c": ("angles", 2)}


def backbone_coords(chain):
    return np.asarray([res.atom(n).position for res in chain.residues
                       for n in ("N", "CA", "C", "O")])


class TestNerfPlace:
    def test_measure_back_1000_random(self):
        rng = make_rng(100)
        for _ in range(1000):
            a, b, c = rng.normal(size=(3, 3)) * 3.0
            length = rng.uniform(0.8, 2.0)
            angle = rng.uniform(0.2, np.pi - 0.2)
            torsion = rng.uniform(-np.pi, np.pi)
            d = nerf_place(a, b, c, length, angle, torsion)
            assert abs(np.linalg.norm(d - c) - length) < 1e-9
            assert abs(bond_angle(b, c, d) - angle) < 1e-9
            assert angle_close(dihedral(a, b, c, d), torsion, 1e-9)

    def test_zero_torsion_stays_in_plane_on_a_side(self):
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([0.0, 0.0, 0.0])
        c = np.array([1.0, -1.0, 0.0])
        d = nerf_place(a, b, c, 1.5, 2.0, 0.0)
        normal = np.cross(b - a, c - b)
        assert abs(np.dot(d - c, normal / np.linalg.norm(normal))) < 1e-12
        assert dihedral(a, b, c, d) == pytest.approx(0.0, abs=1e-12)

    def test_collinear_frame_raises(self):
        with pytest.raises(DegenerateFrame):
            nerf_place((0, 0, 0), (1, 0, 0), (2, 0, 0), 1.5, 2.0, 0.0)

    def test_matches_oracle_on_1000_random_frames(self):
        rng = make_rng(100)  # the frames of test_measure_back_1000_random
        for _ in range(1000):
            a, b, c = rng.normal(size=(3, 3)) * 3.0
            args = (rng.uniform(0.8, 2.0), rng.uniform(0.2, np.pi - 0.2),
                    rng.uniform(-np.pi, np.pi))
            d = nerf_place(a, b, c, *args)
            assert np.max(np.abs(d - nerf_place_oracle(a, b, c, *args))) <= 1e-12

    @pytest.mark.parametrize("a, b, c, length", [
        ((0, 1, 0), (0, 0, 0), (1, 0, 0), 0.0),          # zero length
        ((0, 1, 0), (0, 0, 0), (1, 0, 0), -1.5),         # negative length
        ((0, 1, 0), (1, 0, 0), (1, 0, 0), 1.5),          # b and c coincide
        ((0, 0, 0), (1, 0, 0), (2, 0, 0), 1.5),          # collinear
        ((np.nan, 1, 0), (0, 0, 0), (1, 0, 0), 1.5),     # non-finite a
        ((0, 1, 0), (0, np.inf, 0), (1, 0, 0), 1.5),     # non-finite b
    ])
    def test_degenerate_frames_raise_as_in_the_oracle(self, a, b, c, length):
        for place in (nerf_place, nerf_place_oracle):
            with pytest.raises(DegenerateFrame), np.errstate(invalid="ignore"):
                place(a, b, c, length, 2.0, 0.5)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_length_or_angle_raises(self, value, slot):
        values = [1.5, 2.0, 0.5]  # length, bond angle, torsion
        values[slot] = value
        with pytest.raises(DegenerateFrame, match="non-finite"):
            nerf_place((0, 1, 0), (0, 0, 0), (1, 0, 0), *values)


class TestBackboneWalk:
    @pytest.mark.parametrize("n", [10, 100, 1000, 3000])
    def test_from_internal_matches_oracle_walk(self, n):
        ic = to_internal(jittered_chain(n, make_rng(600 + n), 0.05))
        walked = backbone_coords(from_internal(ic)).reshape(n, 4, 3)
        assert np.array_equal(walked, backbone_walk(ic))
        assert np.max(np.abs(walked - backbone_walk_oracle(ic))) <= 1e-9

    def test_non_finite_or_collinear_anchor_raises(self):
        ic = make_internal(np.full(5, 0.5), np.full(5, 0.5), np.full(5, 0.5))
        for anchor in ([[0, 0, 0], [1, 0, 0], [np.inf, 0, 0]],
                       [[0, 0, 0], [1, 0, 0], [2, 0, 0]]):
            with pytest.raises(DegenerateFrame):
                backbone_walk(dataclasses.replace(ic, anchor=anchor))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["phi", "psi", "omega", "theta_n",
                                      "theta_ca", "theta_c"])
    def test_non_finite_angle_raises(self, name, value):
        ic = make_internal(np.full(5, 0.5), np.full(5, 0.5), np.full(5, 0.5))
        field, column = _COLUMNS[name]
        angles = getattr(ic, field).copy()
        angles[2, column] = value
        with pytest.raises(DegenerateFrame, match="non-finite"):
            backbone_walk(dataclasses.replace(ic, **{field: angles}))

    @pytest.mark.parametrize("q", [0, 65535])
    @pytest.mark.parametrize("residue, column, raises", [
        (10, 3, True), (10, 4, True), (10, 5, True),  # theta_n, _ca, _c
        (19, 3, True), (19, 4, False), (19, 5, False)])  # last: _ca, _c unused
    def test_straight_bond_angle_table(self, residue, column, q, raises):
        """A bond angle of 0 or pi makes the frame after it collinear,
        except the last residue's theta_ca and theta_c, which place nothing."""
        e = encode(random_chain(20, make_rng(30)))
        quantised = e.quantised.copy()
        quantised[residue, column] = q
        bad = dataclasses.replace(e, quantised=quantised)
        if raises:
            with pytest.raises(DegenerateFrame, match="collinear"):
                decode(bad)
        else:
            assert len(decode(bad).residues) == 20

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_residue_payloads_decode(self, n):
        payload = encode(random_chain(20, make_rng(31))).to_bytes()
        e = EncodedProtein.from_bytes(payload[:41 + 13 * n])
        walked = backbone_walk(dequantise(e))
        assert walked.shape == (n, 4, 3)
        assert np.max(np.abs(walked - backbone_walk_oracle(dequantise(e)))) <= 1e-12
        assert np.array_equal(backbone_coords(decode(e)), walked.reshape(-1, 3))

    def test_no_residues_walk_to_nothing(self):
        empty = InternalCoords((), np.empty((0, 3)), np.empty((0, 3)),
                               default_anchor())
        assert backbone_walk(empty).shape == (0, 4, 3)
        assert from_internal(empty).residues == ()

    def test_make_internal_with_no_residues(self):
        ic = make_internal(np.zeros(0), np.zeros(0), np.zeros(0))
        assert ic.res_types == ()
        assert ic.torsions.shape == ic.angles.shape == (0, 3)
        assert backbone_walk(ic).shape == (0, 4, 3)

    def test_decode_walks_the_dequantised_payload(self):
        """The CLI's encode RMSD walks dequantise(e) without a Chain: the
        same bits decode() writes."""
        e = encode(jittered_chain(120, make_rng(32), 0.02))
        assert np.array_equal(backbone_array(decode(e))[0],
                              backbone_walk(dequantise(e)))


class TestInternalRoundTrip:
    def test_build_then_measure_recovers_angles(self):
        rng = make_rng(7)
        for _ in range(10):
            n = int(rng.integers(4, 40))
            torsions = rng.uniform(-np.pi, np.pi, size=(3, n))
            ic = make_internal(*torsions)
            chain = from_internal(ic)
            measured = to_internal(chain)
            assert np.max(np.abs(measured.torsions - ic.torsions)) < 1e-9
            assert np.max(np.abs(measured.angles - ic.angles)) < 1e-9

    def test_coincident_n_and_ca_raise(self):
        chain = random_chain(8, make_rng(25))
        for index in (0, 4, 7):
            bad = with_atom(chain, index, "N",
                            chain.residues[index].atom("CA").position)
            with pytest.raises(DegenerateGeometry):
                to_internal(bad)
            with pytest.raises(DegenerateGeometry):
                encode(bad)

    def test_two_residue_chain_too_short(self):
        chain = random_chain(3, make_rng(8))
        import dataclasses
        short = dataclasses.replace(chain, residues=chain.residues[:2])
        with pytest.raises(ChainTooShort):
            to_internal(short)

    def test_helix_generator_angles(self):
        chain = helix_chain(12)
        d = backbone_dihedrals(chain)
        for i in range(1, 11):
            assert abs(d.phi[i] - (-1.047)) < 1e-9
            assert abs(d.psi[i] - (-0.820)) < 1e-9 if i < 11 else True
        # interior omega at the trans boundary: pi wraps to the -pi side
        for i in range(11):
            assert angle_close(d.omega[i], np.pi, 1e-9)

    def test_three_residue_chain_atom_count(self):
        ic = make_internal(np.zeros(3) + 0.5, np.zeros(3) + 0.5,
                           np.zeros(3) + 0.5)
        chain = from_internal(ic)
        assert sum(len(r.atoms) for r in chain.residues) == 12
        assert [a.name for a in chain.residues[0].atoms] == ["N", "CA", "C", "O"]

    def test_cartesian_round_trip_no_quantisation(self):
        chain = random_chain(30, make_rng(9))
        rebuilt = from_internal(to_internal(chain))
        sup = kabsch(backbone_coords(chain), backbone_coords(rebuilt))
        assert sup.rmsd <= 1e-6

    def test_omega_flip_propagates_downstream(self):
        rng = make_rng(10)
        torsions = rng.uniform(-np.pi, np.pi, size=(3, 50))
        ic = make_internal(*torsions)
        chain = from_internal(ic)
        flipped = ic.torsions.copy()
        flipped[20, 2] = float(np.mod(flipped[20, 2] + np.pi + np.pi,
                                      2 * np.pi) - np.pi)
        import dataclasses
        ic2 = dataclasses.replace(ic, torsions=flipped)
        chain2 = from_internal(ic2)
        sup = kabsch(backbone_coords(chain), backbone_coords(chain2))
        assert sup.rmsd > 1.0

    def test_anchor_rigid_motion_equivariance(self):
        from helpers import random_rotation
        rng = make_rng(11)
        torsions = rng.uniform(-np.pi, np.pi, size=(3, 20))
        ic = make_internal(*torsions)
        R = random_rotation(rng)
        t = rng.normal(size=3) * 5.0
        import dataclasses
        moved = dataclasses.replace(ic, anchor=ic.anchor @ R.T + t)
        base = backbone_coords(from_internal(ic))
        shifted = backbone_coords(from_internal(moved))
        assert np.max(np.abs(shifted - (base @ R.T + t))) < 1e-9


class TestQuantiser:
    def test_endpoints(self):
        assert quantise_torsions(-np.pi) == 0
        assert quantise_torsions(np.nextafter(np.pi, 0.0)) == 65535

    def test_round_trip_error_below_half_step(self):
        rng = make_rng(12)
        thetas = rng.uniform(-np.pi, np.pi, 2000)
        q = quantise_torsions(thetas)
        assert np.all((0 <= q) & (q <= 65535))
        for back, theta in zip(dequantise_torsions(q), thetas):
            assert angle_close(back, theta, np.pi / 65535 + 1e-12)
        thetas = rng.uniform(1e-3, np.pi - 1e-3, 2000)
        q = quantise_bond_angles(thetas)
        assert np.all(np.abs(dequantise_bond_angles(q) - thetas)
                      <= np.pi / 65535 + 1e-12)

    @given(st.floats(-np.pi, np.pi, exclude_max=True))
    def test_torsion_round_trip_property(self, theta):
        q = quantise_torsions(theta)
        assert angle_close(dequantise_torsions(q), theta, np.pi / 65535 + 1e-12)

    def test_monotone(self):
        thetas = np.linspace(-np.pi, np.pi - 1e-9, 4096)
        qs = quantise_torsions(thetas)
        assert np.all(qs[:-1] <= qs[1:])


class TestBinaryFormat:
    def test_size_formula(self):
        for n in (3, 10, 100):
            chain = random_chain(n, make_rng(n))
            assert len(encode(chain).to_bytes()) == 41 + 13 * n

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 60))
    def test_size_formula_property(self, n):
        chain = random_chain(n, make_rng(n))
        assert len(encode(chain).to_bytes()) == 41 + 13 * n

    def test_fixed_point_on_jittered_moved_chains(self):
        """Residue 1's theta_n lies inside the anchor, so it is measured on
        the f32 anchor the payload stores; re-encoding a decoded payload
        then reproduces it on chains far from the origin."""
        rng = make_rng(500)
        for _ in range(400):
            s = single_chain_structure(jittered_chain(30, rng, 0.02))
            R, t = random_rotation(rng), rng.uniform(-80.0, 80.0, size=3)
            moved = transform_structure(s, R, t).chains[0]
            payload = encode(moved).to_bytes()
            again = encode(decode(EncodedProtein.from_bytes(payload)))
            assert again.to_bytes() == payload

    @pytest.mark.parametrize("n", [300, 1000, 3000])
    def test_fixed_point_on_long_jittered_chains(self, n):
        payload = encode(jittered_chain(n, make_rng(700 + n), 0.02)).to_bytes()
        again = encode(decode(EncodedProtein.from_bytes(payload)))
        assert again.to_bytes() == payload

    def test_encode_decode_encode_fixed_point(self):
        for seed in range(5):
            chain = random_chain(40, make_rng(200 + seed))
            first = encode(chain).to_bytes()
            second = encode(decode(EncodedProtein.from_bytes(first))).to_bytes()
            assert first == second

    def test_truncated_by_one_byte(self):
        payload = encode(random_chain(5, make_rng(13))).to_bytes()
        with pytest.raises(TruncatedPayload):
            EncodedProtein.from_bytes(payload[:-1])

    def test_bad_magic(self):
        payload = encode(random_chain(5, make_rng(14))).to_bytes()
        with pytest.raises(BadMagic):
            EncodedProtein.from_bytes(b"XXXX" + payload[4:])

    def test_version_mismatch(self):
        payload = bytearray(encode(random_chain(5, make_rng(15))).to_bytes())
        payload[4] = 9
        with pytest.raises(VersionMismatch):
            EncodedProtein.from_bytes(bytes(payload))

    def test_quantisation_error_bound_per_torsion(self):
        chain = random_chain(25, make_rng(16))
        ic = to_internal(chain)
        rebuilt = to_internal(decode(EncodedProtein.from_bytes(
            encode(chain).to_bytes())))
        mask = ic.defined_torsions
        for a, b in zip(ic.torsions.T, rebuilt.torsions.T):
            for x, y, m in zip(a, b, mask[:, 0]):
                assert angle_close(x, y, np.pi / 65535 + 1e-9)

    def test_decode_round_trip_rmsd(self):
        chain = random_chain(100, make_rng(17))
        rebuilt = decode(encode(chain))
        sup = kabsch(backbone_coords(chain), backbone_coords(rebuilt))
        assert sup.rmsd <= 0.01

    @settings(max_examples=150, deadline=None)
    @given(st.binary(min_size=0, max_size=400))
    def test_fuzzed_payloads_raise_typed_errors(self, payload):
        try:
            decode(EncodedProtein.from_bytes(payload))
        except FoldkitError:
            pass

    def test_residue_codes_survive(self):
        chain = random_chain(10, make_rng(18))
        rebuilt = decode(encode(chain))
        assert [r.res_type for r in rebuilt.residues] == \
            [r.res_type for r in chain.residues]


@st.composite
def encoded_fields(draw):
    """(anchor, codes, quantised) of a random FKC1 payload: n = 1-40, every
    u8 code, u16 values with both ends, f32 anchor values."""
    n = draw(st.integers(1, 40))
    codes = draw(arrays(np.uint8, n))
    quantised = draw(arrays(np.uint16, (n, 6), elements=st.sampled_from(
        (0, 65535)) | st.integers(0, 65535)))
    anchor = draw(arrays(np.float32, (3, 3),
                         elements=st.floats(width=32, allow_nan=False)))
    return anchor, codes, quantised


class TestRecordLayout:
    """The FKC1 body against struct, an independent packer of its layout."""

    @settings(max_examples=150, deadline=None)
    @given(encoded_fields())
    def test_body_matches_struct_packer(self, fields):
        anchor, codes, quantised = fields
        records = np.column_stack([codes, quantised]).ravel().tolist()
        packed = struct.pack("<4sB9f" + "B6H" * len(codes), b"FKC1", 1,
                             *anchor.ravel().tolist(), *records)
        assert EncodedProtein(1, anchor, codes, quantised).to_bytes() == packed
        back = EncodedProtein.from_bytes(packed)
        assert back.version == 1
        assert np.array_equal(back.anchor, anchor)
        assert back.res_type_codes.dtype == np.uint8
        assert back.quantised.dtype == np.uint16
        assert np.array_equal(back.res_type_codes, codes)
        assert np.array_equal(back.quantised, quantised)
