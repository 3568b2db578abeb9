// rulecheck: symbolic rule extraction and tier-equivalence proof. The
// analyzer lifts annotated guard/command functions into the symbolic IR
// (symir.go), exhaustively evaluates them over every view valuation of a
// small reference instance, and diffs the synthesized transition relation
// bit for bit against internal/check's compiled tables — the tables the
// model checker actually executes. A divergence between what the source
// says and what the compiled tiers do becomes a lint finding with a
// concrete (view → transition) witness, at `make lint` time instead of a
// lucky differential seed.
//
// Annotations (in a function's doc comment):
//
//	//rulecheck:relation <name>
//	    The function is one half of the named transition relation:
//	    EnabledRule (one view parameter, returning the rule number) or
//	    Apply (view and rule parameters, returning the next state). Both
//	    halves must be annotated; the pair is swept over all
//	    (class, pred, self, succ) valuations of the registered reference
//	    instance and compared against check.(*Engine).Tables().
//	    Registered names: "dijkstra" (SSToken) and "ssrmin".
//
//	//rulecheck:guard <relation> <group> [args=<path>,...]
//	    The boolean function belongs to a pointwise-equivalence group:
//	    every member must agree on every view valuation of the relation's
//	    instance. Members take either the view itself or, with args=, a
//	    list of view paths (e.g. args=I,Self.X,Pred.X) naming the scalars
//	    to pass — how Guard, GuardX and HasToken are proven to be the
//	    same predicate.
//
//	//rulecheck:step
//	    The function is an execution-tier step: structurally it must
//	    derive the rule from exactly one EnabledRule call on a view,
//	    guard every Apply with that same (view, rule) pair, and assign
//	    the result to a .state field — the composite-atomicity shape of
//	    Algorithm 4 that keeps the live tiers faithful to the state
//	    model.
package lint

import (
	"fmt"
	"go/ast"
	"regexp"
	"sort"
	"strings"

	"ssrmin/internal/check"
	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// RuleCheck is the symbolic rule-extraction and equivalence analyzer.
var RuleCheck = &Analyzer{
	Name: "rulecheck",
	Doc:  "annotated guard/command source must match internal/check's compiled transition tables on every view valuation",
	Packages: []string{
		"ssrmin/internal/dijkstra",
		"ssrmin/internal/core",
		"ssrmin/internal/cst",
	},
	Run: runRuleCheck,
}

// relN and relK fix the reference instance every relation is swept on:
// the smallest ring SSRmin admits (n = 3) with the smallest legal
// counter space (K = 4). Position-uniform algorithms (the only ones
// check compiles) depend on n and K only through Bottom() and mod-K
// arithmetic, so equality on this instance is equality of the rule text.
const (
	relN = 3
	relK = 4
)

// relRef is one registered relation: the reference instance's state
// space in checker index order, its compiled ground-truth tables, and
// the receiver bindings symbolic evaluation substitutes for the
// algorithm's configuration fields.
type relRef struct {
	name   string
	states []symVal
	render []string
	index  map[string]int
	tables check.Tables
	bind   map[string]int64
}

func buildRelation(name string) (*relRef, error) {
	ref := &relRef{name: name, index: map[string]int{}, bind: map[string]int64{"n": relN, "k": relK}}
	switch name {
	case "dijkstra":
		alg := dijkstra.New(relN, relK)
		eng, err := check.New[dijkstra.State](alg, 0).Compile(1)
		if err != nil {
			return nil, err
		}
		ref.tables = eng.Tables()
		// Field order mirrors the source struct declaration (State{X}).
		for _, s := range alg.AllStates() {
			ref.states = append(ref.states, symStructVal(symIntVal(int64(s.X))))
			ref.render = append(ref.render, s.String())
		}
	case "ssrmin":
		alg := core.New(relN, relK)
		eng, err := check.New[core.State](alg, 0).Compile(1)
		if err != nil {
			return nil, err
		}
		ref.tables = eng.Tables()
		// Field order mirrors the source struct declaration
		// (State{X, RTS, TRA}).
		for _, s := range alg.AllStates() {
			ref.states = append(ref.states, symStructVal(symIntVal(int64(s.X)), symBoolVal(s.RTS), symBoolVal(s.TRA)))
			ref.render = append(ref.render, s.String())
		}
	default:
		return nil, fmt.Errorf("unknown relation %q (registered: dijkstra, ssrmin)", name)
	}
	for i, s := range ref.states {
		ref.index[s.key()] = i
	}
	return ref, nil
}

// ---------------------------------------------------------------------------
// Annotation scanning
// ---------------------------------------------------------------------------

var ruleCheckAnnRe = regexp.MustCompile(`^//rulecheck:(relation|guard|step)(?:\s+(.*))?$`)

type rcAnnotation struct {
	kind string
	args []string
	decl *ast.FuncDecl
}

func ruleCheckAnnotations(pass *Pass) []rcAnnotation {
	var out []rcAnnotation
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				m := ruleCheckAnnRe.FindStringSubmatch(strings.TrimSpace(c.Text))
				if m == nil {
					continue
				}
				out = append(out, rcAnnotation{kind: m[1], args: strings.Fields(m[2]), decl: fd})
			}
		}
	}
	return out
}

func runRuleCheck(pass *Pass) {
	anns := ruleCheckAnnotations(pass)
	if len(anns) == 0 {
		return
	}
	comp := newSymCompiler()
	relations := map[string]*relationDecls{}
	guards := map[string]*guardGroup{}
	var relOrder, groupOrder []string

	for _, a := range anns {
		switch a.kind {
		case "relation":
			if len(a.args) != 1 {
				pass.Reportf(a.decl.Pos(), "rulecheck: relation annotation needs exactly one name")
				continue
			}
			name := a.args[0]
			rd := relations[name]
			if rd == nil {
				rd = &relationDecls{}
				relations[name] = rd
				relOrder = append(relOrder, name)
			}
			rd.add(pass, a.decl)
		case "guard":
			if len(a.args) < 2 {
				pass.Reportf(a.decl.Pos(), "rulecheck: guard annotation needs <relation> <group> [args=...]")
				continue
			}
			key := a.args[0] + "/" + a.args[1]
			g := guards[key]
			if g == nil {
				g = &guardGroup{rel: a.args[0], name: a.args[1]}
				guards[key] = g
				groupOrder = append(groupOrder, key)
			}
			member := guardMember{decl: a.decl}
			for _, extra := range a.args[2:] {
				if paths, ok := strings.CutPrefix(extra, "args="); ok {
					member.args = strings.Split(paths, ",")
				} else {
					pass.Reportf(a.decl.Pos(), "rulecheck: unknown guard annotation argument %q", extra)
				}
			}
			g.members = append(g.members, member)
		case "step":
			checkStepDiscipline(pass, a.decl)
		}
	}

	for _, name := range relOrder {
		checkRelation(pass, comp, name, relations[name])
	}
	for _, key := range groupOrder {
		checkGuardGroup(pass, comp, guards[key])
	}
}

// ---------------------------------------------------------------------------
// Relation equivalence
// ---------------------------------------------------------------------------

type relationDecls struct {
	enabled, apply *ast.FuncDecl
}

func (rd *relationDecls) add(pass *Pass, decl *ast.FuncDecl) {
	params := 0
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			n := len(f.Names)
			if n == 0 {
				n = 1
			}
			params += n
		}
	}
	var slot **ast.FuncDecl
	switch params {
	case 1:
		slot = &rd.enabled
	case 2:
		slot = &rd.apply
	default:
		pass.Reportf(decl.Pos(), "rulecheck: relation function %s must take (view) or (view, rule), has %d parameters", decl.Name.Name, params)
		return
	}
	if *slot != nil {
		pass.Reportf(decl.Pos(), "rulecheck: duplicate relation role for %s (already declared by %s)", decl.Name.Name, (*slot).Name.Name)
		return
	}
	*slot = decl
}

func checkRelation(pass *Pass, comp *symCompiler, name string, rd *relationDecls) {
	anchor := rd.enabled
	if anchor == nil {
		anchor = rd.apply
	}
	if rd.enabled == nil || rd.apply == nil {
		missing := "EnabledRule half (one view parameter)"
		if rd.apply == nil {
			missing = "Apply half (view and rule parameters)"
		}
		pass.Reportf(anchor.Pos(), "rulecheck: relation %q is missing its %s", name, missing)
		return
	}
	ref, err := buildRelation(name)
	if err != nil {
		pass.Reportf(anchor.Pos(), "rulecheck: %v", err)
		return
	}
	enFn, enRecv, ok := compileRelationFunc(pass, comp, ref, rd.enabled)
	if !ok {
		return
	}
	apFn, apRecv, ok := compileRelationFunc(pass, comp, ref, rd.apply)
	if !ok {
		return
	}
	viewOf, ok := viewBuilder(pass, ref, rd.enabled)
	if !ok {
		return
	}

	ev := newSymEval()
	nStates := len(ref.states)
	type witness struct {
		class, p, s, u int
		got, want      string
	}
	var ruleBad, nextBad *witness
	ruleMism, nextMism := 0, 0

	for class := 0; class < statemodel.ViewClasses; class++ {
		for p := 0; p < nStates; p++ {
			for s := 0; s < nStates; s++ {
				for u := 0; u < nStates; u++ {
					t := statemodel.TripleIndex(nStates, p, s, u)
					view := viewOf(class, p, s, u)
					out, err := ev.call(enFn, withRecv(enRecv, view))
					if err != nil {
						reportSymError(pass, rd.enabled, name, err)
						return
					}
					got := out[0].n
					want := int64(ref.tables.Rule[class][t])
					if got != want {
						ruleMism++
						if ruleBad == nil {
							ruleBad = &witness{class, p, s, u, fmt.Sprintf("%d", got), fmt.Sprintf("%d", want)}
						}
						continue
					}
					if got == 0 {
						continue
					}
					next, err := ev.call(apFn, withRecv(apRecv, view, symIntVal(got)))
					if err != nil {
						reportSymError(pass, rd.apply, name, err)
						return
					}
					idx, ok := ref.index[next[0].key()]
					if !ok {
						pass.Reportf(rd.apply.Pos(), "rulecheck: relation %q: Apply at class=%s pred=%s self=%s succ=%s leaves the state space (%s)",
							name, className(class), ref.render[p], ref.render[s], ref.render[u], next[0].key())
						return
					}
					if int32(idx) != ref.tables.Next[class][t] {
						nextMism++
						if nextBad == nil {
							nextBad = &witness{class, p, s, u, ref.render[idx], ref.render[ref.tables.Next[class][t]]}
						}
					}
				}
			}
		}
	}

	total := statemodel.ViewClasses * nStates * nStates * nStates
	if ruleBad != nil {
		pass.Reportf(rd.enabled.Pos(),
			"rulecheck: relation %q: source %s disagrees with the compiled rule table at class=%s pred=%s self=%s succ=%s: source enables rule %s, table has %s (%d of %d valuations differ)",
			name, rd.enabled.Name.Name, className(ruleBad.class), ref.render[ruleBad.p], ref.render[ruleBad.s], ref.render[ruleBad.u],
			ruleBad.got, ruleBad.want, ruleMism, total)
	}
	if nextBad != nil {
		pass.Reportf(rd.apply.Pos(),
			"rulecheck: relation %q: source %s disagrees with the compiled next-state table at class=%s pred=%s self=%s succ=%s: source yields %s, table has %s (%d of %d valuations differ)",
			name, rd.apply.Name.Name, className(nextBad.class), ref.render[nextBad.p], ref.render[nextBad.s], ref.render[nextBad.u],
			nextBad.got, nextBad.want, nextMism, total)
	}
}

func className(class int) string {
	if class == 0 {
		return "bottom"
	}
	return "other"
}

func withRecv(recv *symVal, args ...symVal) []symVal {
	if recv == nil {
		return args
	}
	return append([]symVal{*recv}, args...)
}

// compileRelationFunc compiles one relation half and builds its receiver
// value (the algorithm's configuration fields bound to the reference
// instance), when it has one.
func compileRelationFunc(pass *Pass, comp *symCompiler, ref *relRef, decl *ast.FuncDecl) (*symFunc, *symVal, bool) {
	fn, err := comp.compileFunc(pass.Pkg, decl)
	if err != nil {
		reportSymError(pass, decl, ref.name, err)
		return nil, nil, false
	}
	if decl.Recv == nil {
		return fn, nil, true
	}
	recvType := pass.Pkg.Info.TypeOf(decl.Recv.List[0].Type)
	st, ok := symStructOf(recvType)
	if !ok {
		pass.Reportf(decl.Pos(), "rulecheck: receiver of %s is not a struct", decl.Name.Name)
		return nil, nil, false
	}
	fields := make([]symVal, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		v, ok := ref.bind[st.Field(i).Name()]
		if !ok {
			pass.Reportf(decl.Pos(), "rulecheck: receiver field %s of %s has no binding in relation %q (known: n, k)",
				st.Field(i).Name(), decl.Name.Name, ref.name)
			return nil, nil, false
		}
		fields[i] = symIntVal(v)
	}
	recv := symStructVal(fields...)
	return fn, &recv, true
}

// viewBuilder resolves the view parameter's struct layout once and
// returns a constructor for (class, pred, self, succ) valuations.
func viewBuilder(pass *Pass, ref *relRef, decl *ast.FuncDecl) (func(class, p, s, u int) symVal, bool) {
	if decl.Type.Params == nil || len(decl.Type.Params.List) == 0 {
		pass.Reportf(decl.Pos(), "rulecheck: %s has no view parameter", decl.Name.Name)
		return nil, false
	}
	st, ok := symStructOf(pass.Pkg.Info.TypeOf(decl.Type.Params.List[0].Type))
	if !ok {
		pass.Reportf(decl.Pos(), "rulecheck: view parameter of %s is not a struct", decl.Name.Name)
		return nil, false
	}
	type fieldRole int
	const (
		roleI fieldRole = iota
		roleN
		roleSelf
		rolePred
		roleSucc
	)
	roles := make([]fieldRole, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "I":
			roles[i] = roleI
		case "N":
			roles[i] = roleN
		case "Self":
			roles[i] = roleSelf
		case "Pred":
			roles[i] = rolePred
		case "Succ":
			roles[i] = roleSucc
		default:
			pass.Reportf(decl.Pos(), "rulecheck: view field %s of %s is not one of I, N, Self, Pred, Succ", st.Field(i).Name(), decl.Name.Name)
			return nil, false
		}
	}
	return func(class, p, s, u int) symVal {
		fields := make([]symVal, len(roles))
		for i, r := range roles {
			switch r {
			case roleI:
				fields[i] = symIntVal(int64(class))
			case roleN:
				fields[i] = symIntVal(relN)
			case roleSelf:
				fields[i] = ref.states[s]
			case rolePred:
				fields[i] = ref.states[p]
			case roleSucc:
				fields[i] = ref.states[u]
			}
		}
		return symStructVal(fields...)
	}, true
}

func reportSymError(pass *Pass, decl *ast.FuncDecl, rel string, err error) {
	pos := symErrPos(err)
	if !pos.IsValid() {
		pos = decl.Pos()
	}
	pass.Reportf(pos, "rulecheck: relation %q: cannot extract %s symbolically: %v", rel, decl.Name.Name, err)
}

// ---------------------------------------------------------------------------
// Guard groups
// ---------------------------------------------------------------------------

type guardMember struct {
	decl *ast.FuncDecl
	args []string // view paths; nil means the member takes the view itself
}

type guardGroup struct {
	rel, name string
	members   []guardMember
}

func checkGuardGroup(pass *Pass, comp *symCompiler, g *guardGroup) {
	if len(g.members) < 2 {
		pass.Reportf(g.members[0].decl.Pos(), "rulecheck: guard group %q has a single member — nothing to compare against", g.name)
		return
	}
	ref, err := buildRelation(g.rel)
	if err != nil {
		pass.Reportf(g.members[0].decl.Pos(), "rulecheck: guard group %q: %v", g.name, err)
		return
	}
	viewOf, ok := viewBuilder(pass, ref, viewMember(g))
	if !ok {
		return
	}
	type compiled struct {
		member guardMember
		fn     *symFunc
		recv   *symVal
	}
	var fns []compiled
	for _, m := range g.members {
		fn, recv, ok := compileRelationFunc(pass, comp, ref, m.decl)
		if !ok {
			return
		}
		fns = append(fns, compiled{member: m, fn: fn, recv: recv})
	}
	ev := newSymEval()
	nStates := len(ref.states)
	mismatches := 0
	var first string
	var firstDecl *ast.FuncDecl
	for class := 0; class < statemodel.ViewClasses; class++ {
		for p := 0; p < nStates; p++ {
			for s := 0; s < nStates; s++ {
				for u := 0; u < nStates; u++ {
					view := viewOf(class, p, s, u)
					var base bool
					for i, c := range fns {
						args, err := memberArgs(c.member, view)
						if err != nil {
							pass.Reportf(c.member.decl.Pos(), "rulecheck: guard group %q: %v", g.name, err)
							return
						}
						out, err := ev.call(c.fn, withRecv(c.recv, args...))
						if err != nil {
							reportSymError(pass, c.member.decl, g.rel, err)
							return
						}
						got := out[0].isTrue()
						if i == 0 {
							base = got
							continue
						}
						if got != base {
							mismatches++
							if firstDecl == nil {
								firstDecl = c.member.decl
								first = fmt.Sprintf("%s=%t but %s=%t at class=%s pred=%s self=%s succ=%s",
									fns[0].member.decl.Name.Name, base, c.member.decl.Name.Name, got,
									className(class), ref.render[p], ref.render[s], ref.render[u])
							}
						}
					}
				}
			}
		}
	}
	if firstDecl != nil {
		total := statemodel.ViewClasses * nStates * nStates * nStates
		pass.Reportf(firstDecl.Pos(), "rulecheck: guard group %q is not pointwise equal: %s (%d of %d valuations differ)",
			g.name, first, mismatches, total)
	}
}

// viewMember picks a member whose parameter is the view itself, to read
// the view struct layout from; args= members only see scalars.
func viewMember(g *guardGroup) *ast.FuncDecl {
	for _, m := range g.members {
		if m.args == nil {
			return m.decl
		}
	}
	return g.members[0].decl
}

func memberArgs(m guardMember, view symVal) ([]symVal, error) {
	if m.args == nil {
		return []symVal{view}, nil
	}
	out := make([]symVal, len(m.args))
	for i, path := range m.args {
		v := view
		for _, part := range strings.Split(path, ".") {
			idx := viewPathIndex(part)
			if idx < 0 || v.kind != symStruct || idx >= len(v.elems) {
				return nil, fmt.Errorf("bad view path %q in args=", path)
			}
			v = v.elems[idx]
		}
		out[i] = v
	}
	return out, nil
}

// viewPathIndex maps a view path component to its field index in the
// canonical statemodel.View layout (I, N, Self, Pred, Succ) or, below a
// state, the relation's state struct (resolved by conventional names).
func viewPathIndex(part string) int {
	switch part {
	case "I":
		return 0
	case "N":
		return 1
	case "Self":
		return 2
	case "Pred":
		return 3
	case "Succ":
		return 4
	case "X":
		return 0
	case "RTS":
		return 1
	case "TRA":
		return 2
	}
	return -1
}

// ---------------------------------------------------------------------------
// Step discipline
// ---------------------------------------------------------------------------

// checkStepDiscipline structurally verifies an execution-tier step
// function: exactly one EnabledRule call whose result is bound to a rule
// variable, and every Apply call uses that same (view, rule) pair with
// the result assigned to a .state field.
func checkStepDiscipline(pass *Pass, decl *ast.FuncDecl) {
	if decl.Body == nil {
		return
	}
	var enabledCalls, applyCalls []*ast.CallExpr
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "EnabledRule":
				enabledCalls = append(enabledCalls, call)
			case "Apply":
				applyCalls = append(applyCalls, call)
			}
		}
		return true
	})
	if len(enabledCalls) != 1 {
		pass.Reportf(decl.Pos(), "rulecheck: step function %s has %d EnabledRule calls, want exactly 1 (one rule evaluation per step)",
			decl.Name.Name, len(enabledCalls))
		return
	}
	en := enabledCalls[0]
	if len(en.Args) != 1 {
		pass.Reportf(en.Pos(), "rulecheck: step function %s: EnabledRule must take the view", decl.Name.Name)
		return
	}
	viewKey := exprKey(en.Args[0])
	ruleVar := ""
	if assign, ok := pass.Parent(en).(*ast.AssignStmt); ok && len(assign.Lhs) == 1 && len(assign.Rhs) == 1 {
		if id, ok := assign.Lhs[0].(*ast.Ident); ok {
			ruleVar = id.Name
		}
	}
	if viewKey == "" || ruleVar == "" {
		pass.Reportf(en.Pos(), "rulecheck: step function %s must bind `rule := alg.EnabledRule(view)` to a variable", decl.Name.Name)
		return
	}
	if len(applyCalls) == 0 {
		pass.Reportf(decl.Pos(), "rulecheck: step function %s never calls Apply — the enabled rule is dropped", decl.Name.Name)
		return
	}
	for _, ap := range applyCalls {
		if len(ap.Args) != 2 || exprKey(ap.Args[0]) != viewKey || exprKey(ap.Args[1]) != ruleVar {
			pass.Reportf(ap.Pos(), "rulecheck: step function %s: Apply must be called with the same (%s, %s) pair EnabledRule evaluated — applying a rule to a different view breaks composite atomicity",
				decl.Name.Name, viewKey, ruleVar)
			continue
		}
		assign, ok := pass.Parent(ap).(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || !strings.HasSuffix(exprKey(assign.Lhs[0]), ".state") {
			pass.Reportf(ap.Pos(), "rulecheck: step function %s: Apply's result must be assigned to the node's .state field", decl.Name.Name)
		}
	}
}

// sortedRelationNames is a test hook: the registered relation names.
func sortedRelationNames() []string {
	names := []string{"dijkstra", "ssrmin"}
	sort.Strings(names)
	return names
}
