"""Regenerate the static PDB fixtures under tests/fixtures/pdb.

Run from the repository root:  python tests/fixtures/generate.py
Outputs are deterministic; the files are committed so CLI hash checks
stay stable.
"""

import datetime
import os
from dataclasses import replace

import numpy as np

from foldkit.pdb import write_pdb
from foldkit.rng import make_rng
from foldkit.structure import Atom, Chain, Method, Residue, Structure
from foldkit.synth import helix_chain, random_chain, single_chain_structure

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "pdb")


def save(name, structure):
    path = os.path.join(OUT, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(write_pdb(structure))
    print("wrote", path)


def main():
    chain_a = single_chain_structure(random_chain(60, make_rng(1001)), "CHNA")
    chain_a = replace(chain_a, resolution=1.8, method=Method.XRAY,
                      deposition_date=datetime.date(2004, 1, 12))
    save("chain_a.pdb", chain_a)

    chain_b = single_chain_structure(random_chain(25, make_rng(1002)), "CHNB")
    chain_b = replace(chain_b, resolution=3.0, method=Method.EM,
                      deposition_date=datetime.date(2019, 7, 2))
    save("chain_b.pdb", chain_b)

    helix = helix_chain(30)
    ca = helix.residues[4].atom("CA").position
    zn = Atom("ZN", "ZN", ca + np.array([3.0, 0.0, 0.0]), serial=9001)
    save("helix_zn.pdb", single_chain_structure(
        helix, "HLXZ", (Chain("Z", (Residue("ZN", 1, None, (zn,)),)),)))

    a = random_chain(20, make_rng(1003), chain_id="A")
    b_src = random_chain(20, make_rng(1004), chain_id="B")
    offset = np.array([7.0, 1.0, 0.0])
    b = Chain("B", tuple(
        replace(res, atoms=tuple(replace(atom, position=atom.position + offset)
                                 for atom in res.atoms))
        for res in b_src.residues))
    save("dimer.pdb", Structure("DIMR", (a, b)))

    nested = single_chain_structure(random_chain(35, make_rng(1005)), "NEST")
    save(os.path.join("sub", "nested.pdb"), nested)


if __name__ == "__main__":
    main()
