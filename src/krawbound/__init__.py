"""Moment, tail, isoperimetric and hypercontractive bounds for low-degree
polynomials on the Boolean cube.

The package has three layers:

- exact combinatorics: Krawchouk polynomial tables, Boolean-cube transforms,
  distance distributions (krawchouk, cube);
- bivariate exponent functions: the per-coordinate base-2 exponents r, I, tau,
  h, psi, pi, alpha, phi, eta that govern the bounds (bivariate), and the
  bound evaluators built from them (bounds);
- verification: the induction machinery behind the moment bound (induction),
  search/sweep suites that compare bounds against exact brute force (verify),
  and a CLI front end (cli).

All exponents are base-2 and normalized per dimension n unless a docstring
says otherwise.
"""

__version__ = "0.1.0"
