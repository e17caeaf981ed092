"""Desk-scale numerical lab for fermion-pair condensation in domains with
Dirichlet walls: the relative two-body bound state, condensate energy
minimization on masked domains, domain-approximation continuity, pair trial
states on product grids, and the linear two-body asymptotics. Each layer is
a module of its own (``paircond.gp``, ``paircond.twobody``, ...); the command
line lives in ``paircond.cli``."""

__version__ = "0.1.0"
