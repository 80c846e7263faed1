package expr

import (
	"fmt"
	"math"
	"sync"

	"compsynth/internal/interval"
)

// Program is an expression compiled against fixed variable and hole
// orderings. Evaluation takes positional slices instead of maps, which
// keeps the synthesizer's inner loops allocation-free.
type Program struct {
	expr    Expr
	vars    []string
	holes   []string
	varIdx  map[string]int
	hole    map[string]int
	fn      compiledNum // point closure: only when the jump tape rejects the expression
	ifn     compiledNumIv
	ifnOnce sync.Once // compiles ifn on the first interval evaluation
	tp      *tape
	ft      *flatTape
}

type compiledNum func(vars, holes []float64) float64
type compiledBool func(vars, holes []float64) bool
type compiledNumIv func(vars, holes []interval.Interval) interval.Interval
type compiledBoolIv func(vars, holes []interval.Interval) Tri

// Compile binds e's variables and holes to positions in the given
// orderings and returns a Program. Every variable and hole occurring in
// e must appear in the respective list; extra names are permitted.
func Compile(e Expr, vars, holes []string) (*Program, error) {
	p := &Program{
		expr:   e,
		vars:   append([]string(nil), vars...),
		holes:  append([]string(nil), holes...),
		varIdx: make(map[string]int, len(vars)),
		hole:   make(map[string]int, len(holes)),
	}
	for i, v := range vars {
		if _, dup := p.varIdx[v]; dup {
			return nil, fmt.Errorf("expr: duplicate variable %q", v)
		}
		p.varIdx[v] = i
	}
	for i, h := range holes {
		if _, dup := p.hole[h]; dup {
			return nil, fmt.Errorf("expr: duplicate hole %q", h)
		}
		p.hole[h] = i
	}
	if err := p.check(e); err != nil {
		return nil, err
	}
	// Point evaluation prefers the jump-based instruction tape; batched
	// evaluation prefers the jump-free flat tape (flat.go, batch.go).
	// The point closure tree is the fallback for expressions too deep
	// for the jump tape, so it is built only for those. Scalar interval
	// evaluation runs the interval closure tree (see EvalInterval),
	// built on first use: most programs are only ever point-evaluated.
	// All engines are bit-identical (the differential fuzz tests in
	// fuzz_test.go hold them to that).
	p.tp, _ = newTape(e, p.varIdx, p.hole)
	p.ft, _ = newFlatTape(e, p.varIdx, p.hole)
	if p.tp == nil {
		p.fn, _ = p.compileNum(e) // cannot fail: e passed check
	}
	return p, nil
}

// check returns the error the closure compilers would return for e —
// an unbound variable or hole, or an unknown node — visiting nodes in
// their order, without building any closure.
func (p *Program) check(e Expr) error {
	switch n := e.(type) {
	case Const:
		return nil
	case Var:
		if _, ok := p.varIdx[n.Name]; !ok {
			return ErrUnbound{Kind: "var", Name: n.Name}
		}
		return nil
	case Hole:
		if _, ok := p.hole[n.Name]; !ok {
			return ErrUnbound{Kind: "hole", Name: n.Name}
		}
		return nil
	case Bin:
		if err := p.check(n.L); err != nil {
			return err
		}
		if err := p.check(n.R); err != nil {
			return err
		}
		switch n.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpMin, OpMax:
			return nil
		}
		return fmt.Errorf("expr: unknown binop %v", n.Op)
	case Neg:
		return p.check(n.X)
	case Abs:
		return p.check(n.X)
	case If:
		if err := p.checkBool(n.Cond); err != nil {
			return err
		}
		if err := p.check(n.Then); err != nil {
			return err
		}
		return p.check(n.Else)
	}
	return fmt.Errorf("expr: unknown node %T", e)
}

// checkBool is check for boolean expressions.
func (p *Program) checkBool(b BoolExpr) error {
	switch n := b.(type) {
	case BoolConst:
		return nil
	case Cmp:
		if err := p.check(n.L); err != nil {
			return err
		}
		return p.check(n.R)
	case BoolBin:
		if err := p.checkBool(n.L); err != nil {
			return err
		}
		return p.checkBool(n.R)
	case Not:
		return p.checkBool(n.X)
	}
	return fmt.Errorf("expr: unknown bool node %T", b)
}

// MustCompile is Compile but panics on error; for package-level sketches
// whose well-formedness is a code invariant.
func MustCompile(e Expr, vars, holes []string) *Program {
	p, err := Compile(e, vars, holes)
	if err != nil {
		panic(err)
	}
	return p
}

// Expr returns the source expression.
func (p *Program) Expr() Expr { return p.expr }

// Vars returns the variable ordering.
func (p *Program) Vars() []string { return append([]string(nil), p.vars...) }

// HoleNames returns the hole ordering.
func (p *Program) HoleNames() []string { return append([]string(nil), p.holes...) }

// NumHoles returns the number of holes in the ordering.
func (p *Program) NumHoles() int { return len(p.holes) }

// NumVars returns the number of variables in the ordering.
func (p *Program) NumVars() int { return len(p.vars) }

// Eval evaluates the program. vars and holes are positional per the
// orderings given to Compile.
func (p *Program) Eval(vars, holes []float64) float64 {
	if p.tp != nil {
		return p.tp.eval(vars, holes)
	}
	return p.fn(vars, holes)
}

// EvalInterval evaluates the program over boxes. Unlike Eval it
// dispatches closure-first: the flat tape is select-lowered (every If
// evaluates both branches), which pays off when amortized across a
// batch of lanes but loses to the closure tree scalar-side, where
// short-circuiting the untaken branch of a decided If dominates on
// conditional-heavy programs. The tape serves EvalIntervalBatch.
func (p *Program) EvalInterval(vars, holes []interval.Interval) interval.Interval {
	p.ifnOnce.Do(func() { p.ifn, _ = p.compileNumIv(p.expr) }) // checked by Compile
	return p.ifn(vars, holes)
}

func (p *Program) compileNum(e Expr) (compiledNum, error) {
	switch n := e.(type) {
	case Const:
		v := n.Value
		return func(_, _ []float64) float64 { return v }, nil
	case Var:
		i, ok := p.varIdx[n.Name]
		if !ok {
			return nil, ErrUnbound{Kind: "var", Name: n.Name}
		}
		return func(vars, _ []float64) float64 { return vars[i] }, nil
	case Hole:
		i, ok := p.hole[n.Name]
		if !ok {
			return nil, ErrUnbound{Kind: "hole", Name: n.Name}
		}
		return func(_, holes []float64) float64 { return holes[i] }, nil
	case Bin:
		l, err := p.compileNum(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.compileNum(n.R)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case OpAdd:
			return func(v, h []float64) float64 { return l(v, h) + r(v, h) }, nil
		case OpSub:
			return func(v, h []float64) float64 { return l(v, h) - r(v, h) }, nil
		case OpMul:
			return func(v, h []float64) float64 { return l(v, h) * r(v, h) }, nil
		case OpDiv:
			return func(v, h []float64) float64 { return l(v, h) / r(v, h) }, nil
		case OpMin:
			// Builtin min (not a<b) so NaN and -0 handling matches the tree
			// walker's applyBin and the tapes exactly; for float64 the
			// builtins share math.Min/math.Max's semantics.
			return func(v, h []float64) float64 { return min(l(v, h), r(v, h)) }, nil
		case OpMax:
			return func(v, h []float64) float64 { return max(l(v, h), r(v, h)) }, nil
		}
		return nil, fmt.Errorf("expr: unknown binop %v", n.Op)
	case Neg:
		x, err := p.compileNum(n.X)
		if err != nil {
			return nil, err
		}
		return func(v, h []float64) float64 { return -x(v, h) }, nil
	case Abs:
		x, err := p.compileNum(n.X)
		if err != nil {
			return nil, err
		}
		return func(v, h []float64) float64 { return math.Abs(x(v, h)) }, nil
	case If:
		c, err := p.compileBool(n.Cond)
		if err != nil {
			return nil, err
		}
		t, err := p.compileNum(n.Then)
		if err != nil {
			return nil, err
		}
		f, err := p.compileNum(n.Else)
		if err != nil {
			return nil, err
		}
		return func(v, h []float64) float64 {
			if c(v, h) {
				return t(v, h)
			}
			return f(v, h)
		}, nil
	}
	return nil, fmt.Errorf("expr: unknown node %T", e)
}

func (p *Program) compileBool(b BoolExpr) (compiledBool, error) {
	switch n := b.(type) {
	case BoolConst:
		v := n.Value
		return func(_, _ []float64) bool { return v }, nil
	case Cmp:
		l, err := p.compileNum(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.compileNum(n.R)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(v, h []float64) bool { return applyCmp(op, l(v, h), r(v, h)) }, nil
	case BoolBin:
		l, err := p.compileBool(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.compileBool(n.R)
		if err != nil {
			return nil, err
		}
		if n.Op == OpAnd {
			return func(v, h []float64) bool { return l(v, h) && r(v, h) }, nil
		}
		return func(v, h []float64) bool { return l(v, h) || r(v, h) }, nil
	case Not:
		x, err := p.compileBool(n.X)
		if err != nil {
			return nil, err
		}
		return func(v, h []float64) bool { return !x(v, h) }, nil
	}
	return nil, fmt.Errorf("expr: unknown bool node %T", b)
}

func (p *Program) compileNumIv(e Expr) (compiledNumIv, error) {
	switch n := e.(type) {
	case Const:
		v := interval.Point(n.Value)
		return func(_, _ []interval.Interval) interval.Interval { return v }, nil
	case Var:
		i, ok := p.varIdx[n.Name]
		if !ok {
			return nil, ErrUnbound{Kind: "var", Name: n.Name}
		}
		return func(vars, _ []interval.Interval) interval.Interval { return vars[i] }, nil
	case Hole:
		i, ok := p.hole[n.Name]
		if !ok {
			return nil, ErrUnbound{Kind: "hole", Name: n.Name}
		}
		return func(_, holes []interval.Interval) interval.Interval { return holes[i] }, nil
	case Bin:
		l, err := p.compileNumIv(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.compileNumIv(n.R)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(v, h []interval.Interval) interval.Interval {
			return applyBinInterval(op, l(v, h), r(v, h))
		}, nil
	case Neg:
		x, err := p.compileNumIv(n.X)
		if err != nil {
			return nil, err
		}
		return func(v, h []interval.Interval) interval.Interval { return x(v, h).Neg() }, nil
	case Abs:
		x, err := p.compileNumIv(n.X)
		if err != nil {
			return nil, err
		}
		return func(v, h []interval.Interval) interval.Interval { return x(v, h).Abs() }, nil
	case If:
		c, err := p.compileBoolIv(n.Cond)
		if err != nil {
			return nil, err
		}
		t, err := p.compileNumIv(n.Then)
		if err != nil {
			return nil, err
		}
		f, err := p.compileNumIv(n.Else)
		if err != nil {
			return nil, err
		}
		return func(v, h []interval.Interval) interval.Interval {
			switch c(v, h) {
			case TriTrue:
				return t(v, h)
			case TriFalse:
				return f(v, h)
			default:
				return t(v, h).Union(f(v, h))
			}
		}, nil
	}
	return nil, fmt.Errorf("expr: unknown node %T", e)
}

func (p *Program) compileBoolIv(b BoolExpr) (compiledBoolIv, error) {
	switch n := b.(type) {
	case BoolConst:
		v := TriFalse
		if n.Value {
			v = TriTrue
		}
		return func(_, _ []interval.Interval) Tri { return v }, nil
	case Cmp:
		l, err := p.compileNumIv(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.compileNumIv(n.R)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(v, h []interval.Interval) Tri { return cmpInterval(op, l(v, h), r(v, h)) }, nil
	case BoolBin:
		l, err := p.compileBoolIv(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.compileBoolIv(n.R)
		if err != nil {
			return nil, err
		}
		if n.Op == OpAnd {
			return func(v, h []interval.Interval) Tri { return triAnd(l(v, h), r(v, h)) }, nil
		}
		return func(v, h []interval.Interval) Tri { return triOr(l(v, h), r(v, h)) }, nil
	case Not:
		x, err := p.compileBoolIv(n.X)
		if err != nil {
			return nil, err
		}
		return func(v, h []interval.Interval) Tri {
			switch x(v, h) {
			case TriTrue:
				return TriFalse
			case TriFalse:
				return TriTrue
			default:
				return TriUnknown
			}
		}, nil
	}
	return nil, fmt.Errorf("expr: unknown bool node %T", b)
}
