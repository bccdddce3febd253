// Package lp provides a self-contained linear-programming solver: a
// revised simplex method for problems with bounded variables, used as the
// relaxation engine of the MILP branch-and-bound in internal/milp.
//
// The paper solves its floorplanning formulation with a commercial MILP
// solver; this package is the open substrate substituted for it (see
// DESIGN.md). It is a two-phase bounded-variable revised simplex over a
// sparse column-major matrix, keeping the basis inverse in product form
// as an eta file that is rebuilt by sparse refactorization every 100
// pivots, with a dual simplex for warm starts from an earlier basis.
// Repeated solves of one model (branch-and-bound nodes) compile the
// matrix once and reuse a Workspace, whose buffers, returned X and
// recycled bases make a node solve allocation-free; released workspaces
// go to a pool that later solves draw from.
package lp

import (
	"fmt"
	"math"
)

// Inf is the bound used for unbounded variables ("no bound").
var Inf = math.Inf(1)

// VarID identifies a variable within a Model.
type VarID int

// ConID identifies a constraint within a Model.
type ConID int

// Sense is the direction of a linear constraint.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // sum <= rhs
	GE              // sum >= rhs
	EQ              // sum == rhs
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// Model is an LP/MILP model under construction: variables with bounds and
// objective coefficients, plus linear constraints. Minimization is assumed
// throughout.
type Model struct {
	varNames []string
	lo, hi   []float64
	obj      []float64
	integer  []bool

	conNames []string
	rows     [][]Term
	senses   []Sense
	rhs      []float64
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddVariable adds a continuous variable with bounds [lo, hi] and objective
// coefficient obj, returning its id.
func (m *Model) AddVariable(name string, lo, hi, obj float64) VarID {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q has lo %g > hi %g", name, lo, hi))
	}
	m.varNames = append(m.varNames, name)
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.obj = append(m.obj, obj)
	m.integer = append(m.integer, false)
	return VarID(len(m.varNames) - 1)
}

// AddInteger adds an integer variable with bounds [lo, hi] and objective
// coefficient obj. Integrality is ignored by the LP solver and enforced by
// the MILP layer.
func (m *Model) AddInteger(name string, lo, hi, obj float64) VarID {
	id := m.AddVariable(name, lo, hi, obj)
	m.integer[id] = true
	return id
}

// AddBinary adds a {0,1} variable with objective coefficient obj.
func (m *Model) AddBinary(name string, obj float64) VarID {
	return m.AddInteger(name, 0, 1, obj)
}

// AddConstraint adds the linear constraint sum(terms) sense rhs. Duplicate
// variables within terms are accumulated.
func (m *Model) AddConstraint(name string, terms []Term, sense Sense, rhs float64) ConID {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.varNames) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
	}
	m.conNames = append(m.conNames, name)
	m.rows = append(m.rows, compactTerms(terms))
	m.senses = append(m.senses, sense)
	m.rhs = append(m.rhs, rhs)
	return ConID(len(m.conNames) - 1)
}

// compactTerms merges duplicate variables and drops zero coefficients.
func compactTerms(terms []Term) []Term {
	byVar := map[VarID]float64{}
	order := make([]VarID, 0, len(terms))
	for _, t := range terms {
		if _, seen := byVar[t.Var]; !seen {
			order = append(order, t.Var)
		}
		byVar[t.Var] += t.Coef
	}
	out := make([]Term, 0, len(order))
	for _, v := range order {
		if c := byVar[v]; c != 0 {
			out = append(out, Term{Var: v, Coef: c})
		}
	}
	return out
}

// SetObjective replaces the objective coefficient of v.
func (m *Model) SetObjective(v VarID, obj float64) { m.obj[v] = obj }

// SetBounds replaces the bounds of v.
func (m *Model) SetBounds(v VarID, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("lp: SetBounds(%d) lo %g > hi %g", v, lo, hi))
	}
	m.lo[v] = lo
	m.hi[v] = hi
}

// Bounds returns the bounds of v.
func (m *Model) Bounds(v VarID) (lo, hi float64) { return m.lo[v], m.hi[v] }

// NumVariables returns the number of variables.
func (m *Model) NumVariables() int { return len(m.varNames) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.conNames) }

// VarName returns the name of v.
func (m *Model) VarName(v VarID) string { return m.varNames[v] }

// ConName returns the name of c.
func (m *Model) ConName(c ConID) string { return m.conNames[c] }

// IsInteger reports whether v was declared integer.
func (m *Model) IsInteger(v VarID) bool { return m.integer[v] }

// IntegerVariables returns the ids of all integer variables in order.
func (m *Model) IntegerVariables() []VarID {
	var out []VarID
	for i, isInt := range m.integer {
		if isInt {
			out = append(out, VarID(i))
		}
	}
	return out
}

// Objective evaluates the model objective at x.
func (m *Model) Objective(x []float64) float64 {
	v := 0.0
	for i, c := range m.obj {
		if c != 0 {
			v += c * x[i]
		}
	}
	return v
}

// CheckFeasible verifies that x satisfies every bound and constraint within
// tol, returning a descriptive error for the first violation. It is used by
// tests and by the MILP layer's incumbent acceptance.
func (m *Model) CheckFeasible(x []float64, tol float64) error {
	if len(x) != len(m.varNames) {
		return fmt.Errorf("lp: solution has %d entries, want %d", len(x), len(m.varNames))
	}
	for i := range x {
		if x[i] < m.lo[i]-tol || x[i] > m.hi[i]+tol {
			return fmt.Errorf("lp: variable %s=%g outside [%g, %g]", m.varNames[i], x[i], m.lo[i], m.hi[i])
		}
	}
	for r, row := range m.rows {
		sum := 0.0
		for _, t := range row {
			sum += t.Coef * x[t.Var]
		}
		switch m.senses[r] {
		case LE:
			if sum > m.rhs[r]+tol {
				return fmt.Errorf("lp: constraint %s: %g > %g", m.conNames[r], sum, m.rhs[r])
			}
		case GE:
			if sum < m.rhs[r]-tol {
				return fmt.Errorf("lp: constraint %s: %g < %g", m.conNames[r], sum, m.rhs[r])
			}
		case EQ:
			if math.Abs(sum-m.rhs[r]) > tol {
				return fmt.Errorf("lp: constraint %s: %g != %g", m.conNames[r], sum, m.rhs[r])
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	cp := &Model{
		varNames: append([]string(nil), m.varNames...),
		lo:       append([]float64(nil), m.lo...),
		hi:       append([]float64(nil), m.hi...),
		obj:      append([]float64(nil), m.obj...),
		integer:  append([]bool(nil), m.integer...),
		conNames: append([]string(nil), m.conNames...),
		senses:   append([]Sense(nil), m.senses...),
		rhs:      append([]float64(nil), m.rhs...),
	}
	cp.rows = make([][]Term, len(m.rows))
	for i, row := range m.rows {
		cp.rows[i] = append([]Term(nil), row...)
	}
	return cp
}
