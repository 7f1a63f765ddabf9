"""Problem container for the MILP modeling layer.

A :class:`Problem` collects variables, an objective and constraints, and
converts them to the array form consumed by the solvers
(``min c @ x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  low <= x <= up``).
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Callable, Iterable, Mapping

import numpy as np

from repro.milp.constraint import Constraint, ConstraintSense
from repro.milp.expression import LinExpr, Variable

__all__ = ["ObjectiveSense", "Problem", "StandardForm"]


class ObjectiveSense(enum.Enum):
    """Optimization direction."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclasses.dataclass(frozen=True)
class StandardForm:
    """Array representation of a problem.

    ``c`` / ``c0`` encode the (minimization) objective ``c @ x + c0``;
    maximization problems are negated during conversion so solvers only ever
    minimize.  ``integrality`` is a boolean mask over the variable order.

    The constraint blocks ``a_ub``/``a_eq`` are dense arrays, except in forms
    made by :meth:`from_blocks`: those start with only a recipe for their CSR
    blocks (:meth:`sparse`), and each dense block is built from the CSR the
    first time something reads it.  A consumer that never reads the blocks —
    the structured solver path — never pays for them.
    """

    variables: tuple[Variable, ...]
    c: np.ndarray
    c0: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    maximize: bool

    @classmethod
    def from_blocks(
        cls,
        blocks: "Callable[[], SparseConstraints]",
        *,
        c: np.ndarray,
        b_ub: np.ndarray,
        b_eq: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        integrality: np.ndarray,
    ) -> "StandardForm":
        """A minimization form with no objective constant whose constraint
        blocks are built on first use.

        ``blocks()`` must return the CSR blocks exactly as
        :meth:`sparse` would convert them from the dense arrays (entries in
        row-major order, explicit zeros dropped); it runs at most once, when
        :meth:`sparse` or a dense block is first needed.  The dense blocks
        are that CSR expanded, so every consumer sees the same arrays as for
        a form built dense.
        """
        form = cls.__new__(cls)
        fields = dict(
            variables=(), c=c, c0=0.0, b_ub=b_ub, b_eq=b_eq, lower=lower, upper=upper,
            integrality=integrality, maximize=False, _blocks=blocks,
        )
        for name, value in fields.items():
            object.__setattr__(form, name, value)
        return form

    def __getattr__(self, name: str):
        # Reached only for attributes missing from the instance: the dense
        # blocks of a from_blocks form that nothing has read yet.
        if name in ("a_ub", "a_eq") and "_blocks" in self.__dict__:
            dense = getattr(self.sparse(), name).toarray()
            object.__setattr__(self, name, dense)
            return dense
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def num_variables(self) -> int:
        # Derived from the coefficient vector, not ``variables``: forms built
        # directly from arrays (the WaterWise fast path) carry no Variable
        # objects but must still solve through the same backends.
        return len(self.c)

    def sparse(self) -> "SparseConstraints":
        """CSR view of the constraint blocks, converted once and cached.

        The form is frozen, so the cached conversion can never diverge from
        the dense arrays; presolve, the revised simplex and branch & bound all
        share the same CSR data through this accessor.
        """
        cached = self.__dict__.get("_sparse")
        if cached is None:
            blocks = self.__dict__.get("_blocks")
            if blocks is not None:
                cached = blocks()
            else:
                from repro.milp.sparse import SparseConstraints

                cached = SparseConstraints.from_arrays(self.a_ub, self.a_eq)
            object.__setattr__(self, "_sparse", cached)
        return cached

    @property
    def num_constraints(self) -> int:
        return len(self.b_ub) + len(self.b_eq)

    def objective_value(self, x: np.ndarray) -> float:
        """Objective in the problem's *original* sense for solution vector ``x``."""
        value = float(self.c @ x + self.c0)
        return -value if self.maximize else value


class Problem:
    """A mixed-integer linear program under construction.

    Examples
    --------
    >>> from repro.milp import Problem, Variable, VarType, ObjectiveSense
    >>> prob = Problem("knapsack", sense=ObjectiveSense.MAXIMIZE)
    >>> x = [Variable(f"x{i}", var_type=VarType.BINARY) for i in range(3)]
    >>> prob.set_objective(4 * x[0] + 3 * x[1] + 5 * x[2])
    >>> _ = prob.add_constraint(2 * x[0] + 3 * x[1] + 4 * x[2] <= 5, name="weight")
    """

    def __init__(self, name: str = "problem", sense: ObjectiveSense = ObjectiveSense.MINIMIZE):
        self.name = str(name)
        self.sense = sense
        self._objective: LinExpr = LinExpr()
        self._constraints: list[Constraint] = []
        self._variables: dict[Variable, int] = {}
        self._names: dict[str, Variable] = {}

    # -- construction --------------------------------------------------------
    def _register(self, var: Variable) -> None:
        if var in self._variables:
            return
        existing = self._names.get(var.name)
        if existing is not None and existing is not var:
            raise ValueError(f"duplicate variable name {var.name!r} in problem {self.name!r}")
        self._variables[var] = len(self._variables)
        self._names[var.name] = var

    def add_variable(self, var: Variable) -> Variable:
        """Explicitly register a variable (implicit registration also happens
        when the variable appears in the objective or a constraint)."""
        self._register(var)
        return var

    def set_objective(self, expr: LinExpr | Variable | float) -> None:
        """Set the objective expression (replacing any previous one)."""
        expr = LinExpr._coerce(expr)
        for var in expr.terms:
            self._register(var)
        self._objective = expr

    def add_constraint(self, constraint: Constraint, name: str | None = None) -> Constraint:
        """Add a constraint, optionally naming it, and return it."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a Constraint (build one with <=, >= or == on expressions)"
            )
        if name is not None:
            constraint = constraint.with_name(name)
        for var in constraint.expr.terms:
            self._register(var)
        self._constraints.append(constraint)
        return constraint

    def extend(self, constraints: Iterable[Constraint]) -> None:
        """Add several constraints at once."""
        for con in constraints:
            self.add_constraint(con)

    def __iadd__(self, item: Constraint | LinExpr | Variable | float) -> "Problem":
        """PuLP-style ``prob += constraint`` / ``prob += objective_expr``."""
        if isinstance(item, Constraint):
            self.add_constraint(item)
        else:
            self.set_objective(item)
        return self

    # -- introspection ---------------------------------------------------------
    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def is_mip(self) -> bool:
        """Whether any registered variable is integer/binary."""
        return any(v.is_integer for v in self._variables)

    def variable_by_name(self, name: str) -> Variable:
        """Look up a registered variable by name (KeyError if unknown)."""
        return self._names[name]

    # -- evaluation -------------------------------------------------------------
    def objective_value(self, assignment: Mapping[Variable, float]) -> float:
        """Evaluate the objective for a variable assignment."""
        return self._objective.value(assignment)

    def is_feasible(self, assignment: Mapping[Variable, float], tol: float = 1e-6) -> bool:
        """Whether ``assignment`` satisfies all constraints and variable bounds."""
        for var in self._variables:
            value = float(assignment.get(var, 0.0))
            if var.low is not None and value < var.low - tol:
                return False
            if var.up is not None and value > var.up + tol:
                return False
            if var.is_integer and abs(value - round(value)) > tol:
                return False
        return all(con.satisfied(assignment, tol=tol) for con in self._constraints)

    # -- conversion --------------------------------------------------------------
    def to_standard_form(self) -> StandardForm:
        """Convert to the dense minimization form used by the solvers."""
        variables = tuple(self._variables)
        index = {var: i for i, var in enumerate(variables)}
        n = len(variables)

        sign = -1.0 if self.sense is ObjectiveSense.MAXIMIZE else 1.0
        c = np.zeros(n)
        for var, coeff in self._objective.terms.items():
            c[index[var]] = sign * coeff
        c0 = sign * self._objective.constant

        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []
        eq_rows: list[np.ndarray] = []
        eq_rhs: list[float] = []
        for con in self._constraints:
            row = np.zeros(n)
            for var, coeff in con.expr.terms.items():
                row[index[var]] = coeff
            rhs = con.rhs
            if con.sense is ConstraintSense.LE:
                ub_rows.append(row)
                ub_rhs.append(rhs)
            elif con.sense is ConstraintSense.GE:
                ub_rows.append(-row)
                ub_rhs.append(-rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(rhs)

        a_ub = np.array(ub_rows) if ub_rows else np.zeros((0, n))
        b_ub = np.array(ub_rhs) if ub_rhs else np.zeros(0)
        a_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n))
        b_eq = np.array(eq_rhs) if eq_rhs else np.zeros(0)

        lower = np.array([-np.inf if v.low is None else v.low for v in variables])
        upper = np.array([np.inf if v.up is None else v.up for v in variables])
        integrality = np.array([v.is_integer for v in variables], dtype=bool)

        return StandardForm(
            variables=variables,
            c=c,
            c0=c0,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            lower=lower,
            upper=upper,
            integrality=integrality,
            maximize=self.sense is ObjectiveSense.MAXIMIZE,
        )

    def __repr__(self) -> str:
        kind = "MILP" if self.is_mip else "LP"
        return (
            f"Problem({self.name!r}, {kind}, {self.num_variables} vars, "
            f"{self.num_constraints} constraints, {self.sense.value})"
        )
