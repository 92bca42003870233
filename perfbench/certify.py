"""Seeded generator of the certify workloads' torsionlab script.

Each thm2.8 sequence is the variable vector (x, y, z) times a seeded 3x3
matrix L*U, with L unit lower triangular and U upper triangular with a
non-zero diagonal, so det != 0 and the sequence is regular by construction:
no seed is ever rejected.  All entries of L and U are positive, so every
entry of L*U is positive too and the sequence is dense (over GF(p) an entry
can vanish mod p, with chance about 1/p).
"""

import random

VARIABLES = ("x", "y", "z")
PRIME = 32003


def positive_lu_matrix(rng, low, high):
    n = len(VARIABLES)
    lower = [[1 if i == j else rng.randint(low, high) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[rng.randint(low, high) if j >= i else 0 for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def linear_forms(matrix):
    return [" + ".join(f"{c}*{v}" for c, v in zip(row, VARIABLES) if c) for row in matrix]


def sequences(seed):
    """The two sequences of ``seed``, over GF(PRIME) and over QQ, as forms."""
    rng = random.Random(seed)
    modular = [[c % PRIME for c in row] for row in positive_lu_matrix(rng, 1, PRIME - 1)]
    rational = positive_lu_matrix(rng, 100, 999)
    return linear_forms(modular), linear_forms(rational)


def sequence_forms(seed):
    """Every form of both sequences, in script order."""
    modular, rational = sequences(seed)
    return modular + rational


def certify_script(seed):
    """The script for ``seed``; the same seed always gives the same text."""
    modular, rational = sequences(seed)
    return "\n".join(
        [
            f"# certify workload, seed {seed}",
            f"ring A = GF({PRIME})[x,y,z];",
            f"verify thm2.8 over A with sequence ({', '.join(modular)});",
            "ring B = QQ[x,y,z];",
            f"verify thm2.8 over B with sequence ({', '.join(rational)});",
            "ring C = GF(5)[x,y,z,w];",
            "module K = coker [[x],[y],[z],[w]] over C;",
            "print nu(torsion(tensor_power(K, 3)));",
            "ring F = GF(2)[x,y,z] / (x^3 + y^3 + z^3)"
            " with minimal_primes [(x^3 + y^3 + z^3)] reduced ci;",
            "module N = coker [[y],[z]] over F;",
            "print nu(restrict(N, e=1));",
            "print tor_frobenius(N, e=1, i=1);",
            "verify thm3.5 N e=1;",
            "print resolve(N);",
            "",
        ]
    )
