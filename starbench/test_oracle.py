"""The benchmark's oracles on small cases worked by hand.

    python3 -m pytest starbench/test_oracle.py
"""

import oracle


def test_gf2_arithmetic():
    assert oracle.gf2_mul(0b11, 0b11) == 0b101  # (1+t)^2 = 1+t^2
    assert oracle.gf2_mul(0b111, 0b11) == 0b1001  # (1+t+t^2)(1+t) = 1+t^3
    assert oracle.gf2_mod(0b1000, 0b111) == 1  # t^3 = (1+t)(1+t+t^2) + 1
    assert oracle.gf2_gcd(0b110, 0b101) == 0b11  # t(1+t) and (1+t)^2 share 1+t
    assert oracle.gf2_gcd(0b100, 0b110) == 0b10  # t^2 and t(1+t) share t
    assert oracle.gf2_gcd(0b10, 0b11) == 1
    assert oracle.gf2_gcd(0b111, 0b10) == 1


def test_poly_text():
    assert oracle.poly_text(0) == "0"
    assert oracle.poly_text(1) == "1"
    assert oracle.poly_text(0b10) == "t"
    assert oracle.poly_text(0b1011) == "1+t+t^3"


def test_primitive_polys():
    assert oracle.primitive_polys(3) == [0b1011, 0b1101]  # 1+t+t^3, 1+t^2+t^3
    assert oracle.primitive_polys(4) == [0b10011, 0b11001]  # 1+t+t^4, 1+t^3+t^4
    assert not oracle.is_primitive(0b11111)  # irreducible, but t has order 5
    assert not oracle.is_primitive(0b101)  # (1+t)^2
    # phi(2^d - 1) / d primitive polynomials of degree d.
    assert [len(oracle.primitive_polys(d)) for d in (7, 8, 9)] == [18, 16, 48]


def test_window_image():
    assert oracle.window_image(0b11, 0b1101, 4) == 0b011  # 1+t: XOR of adjacent symbols
    assert oracle.window_image(0b10, 0b1101, 4) == 0b101  # t: drop the first symbol
    assert oracle.window_image(0b111, 0b1100, 4) == 0b01  # 1+1+0, 1+0+0
    assert oracle.linear_members(0b11) == "01,10"
    assert oracle.linear_members(0b10) == "01,11"


def test_census_closed_form():
    two = oracle.census(2)
    assert two["counts"] == {"total": 16, "progressive": 4, "admissible": 2, "star_commuting_with_shift": 1}
    assert two["admissible"] == [
        {"members": "01,10", "polynomial": "1+t", "star_commutes_with_shift": True},
        {"members": "01,11", "polynomial": "t", "star_commutes_with_shift": False},
    ]
    three = oracle.census(3)
    assert three["counts"] == {"total": 256, "progressive": 16, "admissible": 4, "star_commuting_with_shift": 2}
    assert [(r["members"], r["polynomial"]) for r in three["admissible"]] == [
        ("001,010,100,111", "1+t+t^2"),
        ("001,010,101,110", "t+t^2"),
        ("001,011,100,110", "1+t^2"),
        ("001,011,101,111", "t^2"),
    ]


def test_sequences():
    assert oracle.seq_prefix("1", "01", 6) == 0b101010
    assert oracle.in_kernel(0b111, "", "011")  # x_k + x_k+1 + x_k+2 = 0 along 011011...
    assert not oracle.in_kernel(0b111, "", "01")
    assert oracle.in_kernel(0b10, "1", "0")  # the shift kills 1000...
    assert not oracle.in_kernel(0b10, "", "1")
    assert oracle.is_normal("", "011") and oracle.is_normal("1", "0")
    assert not oracle.is_normal("", "0101")  # period 01 repeated
    assert not oracle.is_normal("0", "10")  # equals :01
    assert oracle.xor_row("1101") == "011"


def test_quad_text():
    assert oracle.quad_text(0, 3) == "0"
    assert oracle.quad_text(-3, 0) == "-3"
    assert oracle.quad_text(1, 2) == "1/2"
    assert oracle.quad_text(1, 1) == "1/2√2"  # 2^(-1/2) = sqrt2 / 2
    assert oracle.quad_text(2, 1) == "√2"
    assert oracle.quad_text(-2, 1) == "-√2"
    assert oracle.quad_text(3, 3) == "3/4√2"


def test_star_witness():
    # S_t* S_t is the identity, (S_t S_t*)(00, 00) = 1/2, so the difference is 1/2 there.
    assert oracle.star_witness(0b10, 0b10, 2) == ("00", "00", "1/2")
    # Level 1, 1+t twice: the left side is the identity, the right side is 1/2 everywhere.
    assert oracle.star_witness(0b11, 0b11, 1) == ("0", "0", "1/2")
    # Level 1, t and 1+t: every count is 1 and every join holds, both sides are 1/2.
    assert oracle.star_witness(0b10, 0b11, 1) is None
