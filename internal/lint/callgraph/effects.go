package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/cfg"
)

// EffectKind is a bitmask of the effect categories the graph summarizes.
type EffectKind uint

const (
	// Lock: acquiring a sync primitive that can block or serialize —
	// Mutex/RWMutex (Try)Lock/RLock, Once.Do, WaitGroup.Wait, Cond.Wait.
	Lock EffectKind = 1 << iota
	// Alloc: a heap-allocation site — make/new/append, pointer or
	// slice/map composite literals, map writes, non-constant string
	// concatenation, string<->[]byte/[]rune conversions, known
	// allocating stdlib calls (fmt, strconv, strings.Builder), and
	// boxing a concrete value into an interface-typed call argument.
	Alloc
	// Chan: a channel operation that can block — send, receive,
	// select without default, ranging over a channel, time.Sleep.
	Chan
	// Clock: reading the wall clock (time.Now/Since/Until).
	Clock
	// Go: starting a goroutine.
	Go
)

// AllEffects is every summarized kind.
const AllEffects = Lock | Alloc | Chan | Clock | Go

// String renders the set, e.g. "lock|alloc".
func (k EffectKind) String() string {
	var parts []string
	for _, e := range [...]struct {
		bit  EffectKind
		name string
	}{{Lock, "lock"}, {Alloc, "alloc"}, {Chan, "chan"}, {Clock, "clock"}, {Go, "go"}} {
		if k&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Effect is one direct effect site inside a function body.
type Effect struct {
	Kind EffectKind
	Pos  token.Pos
	Desc string
}

// externEffects maps types.Func.FullName of sourceless (export-data)
// functions to the effect calling them has. Functions with source never
// consult this table — their effects are discovered transitively.
var externEffects = map[string]Effect{
	"time.Now":   {Kind: Clock, Desc: "reads the wall clock (time.Now)"},
	"time.Since": {Kind: Clock, Desc: "reads the wall clock (time.Since)"},
	"time.Until": {Kind: Clock, Desc: "reads the wall clock (time.Until)"},
	"time.Sleep": {Kind: Chan, Desc: "blocks (time.Sleep)"},

	"(*sync.Mutex).Lock":       {Kind: Lock, Desc: "acquires (*sync.Mutex).Lock"},
	"(*sync.Mutex).TryLock":    {Kind: Lock, Desc: "acquires (*sync.Mutex).TryLock"},
	"(*sync.RWMutex).Lock":     {Kind: Lock, Desc: "acquires (*sync.RWMutex).Lock"},
	"(*sync.RWMutex).TryLock":  {Kind: Lock, Desc: "acquires (*sync.RWMutex).TryLock"},
	"(*sync.RWMutex).RLock":    {Kind: Lock, Desc: "acquires (*sync.RWMutex).RLock"},
	"(*sync.RWMutex).TryRLock": {Kind: Lock, Desc: "acquires (*sync.RWMutex).TryRLock"},
	"(*sync.Once).Do":          {Kind: Lock, Desc: "acquires (*sync.Once).Do"},
	"(*sync.WaitGroup).Wait":   {Kind: Lock, Desc: "blocks on (*sync.WaitGroup).Wait"},
	"(*sync.Cond).Wait":        {Kind: Lock, Desc: "blocks on (*sync.Cond).Wait"},
	"(sync.Locker).Lock":       {Kind: Lock, Desc: "acquires (sync.Locker).Lock"},

	"fmt.Sprintf":  {Kind: Alloc, Desc: "allocates (fmt.Sprintf)"},
	"fmt.Sprint":   {Kind: Alloc, Desc: "allocates (fmt.Sprint)"},
	"fmt.Sprintln": {Kind: Alloc, Desc: "allocates (fmt.Sprintln)"},
	"fmt.Errorf":   {Kind: Alloc, Desc: "allocates (fmt.Errorf)"},
	"fmt.Fprintf":  {Kind: Alloc, Desc: "allocates (fmt.Fprintf)"},
	"fmt.Fprint":   {Kind: Alloc, Desc: "allocates (fmt.Fprint)"},
	"fmt.Fprintln": {Kind: Alloc, Desc: "allocates (fmt.Fprintln)"},
	"fmt.Appendf":  {Kind: Alloc, Desc: "allocates (fmt.Appendf)"},

	"strconv.Itoa":        {Kind: Alloc, Desc: "allocates (strconv.Itoa)"},
	"strconv.FormatInt":   {Kind: Alloc, Desc: "allocates (strconv.FormatInt)"},
	"strconv.FormatUint":  {Kind: Alloc, Desc: "allocates (strconv.FormatUint)"},
	"strconv.FormatFloat": {Kind: Alloc, Desc: "allocates (strconv.FormatFloat)"},
	"strconv.Quote":       {Kind: Alloc, Desc: "allocates (strconv.Quote)"},

	"strings.Join":   {Kind: Alloc, Desc: "allocates (strings.Join)"},
	"strings.Repeat": {Kind: Alloc, Desc: "allocates (strings.Repeat)"},
	"strings.Split":  {Kind: Alloc, Desc: "allocates (strings.Split)"},

	"(*strings.Builder).String":      {Kind: Alloc, Desc: "allocates ((*strings.Builder).String)"},
	"(*strings.Builder).WriteString": {Kind: Alloc, Desc: "may grow ((*strings.Builder).WriteString)"},
	"(*strings.Builder).Write":       {Kind: Alloc, Desc: "may grow ((*strings.Builder).Write)"},
	"(*strings.Builder).WriteByte":   {Kind: Alloc, Desc: "may grow ((*strings.Builder).WriteByte)"},
	"(*strings.Builder).WriteRune":   {Kind: Alloc, Desc: "may grow ((*strings.Builder).WriteRune)"},
}

// Effects returns (computing once) the node's direct effects: operations
// in its own body, plus table effects of sourceless callees. Effects of
// callees with source are not included — reachability composes them.
func (g *Graph) Effects(n *Node) []Effect {
	if es, ok := g.effects[n]; ok {
		return es
	}
	var es []Effect
	add := func(kind EffectKind, pos token.Pos, desc string) {
		es = append(es, Effect{Kind: kind, Pos: pos, Desc: desc})
	}
	info := n.Src.Info

	// The compiler converts []byte to string without copying where the
	// string cannot outlive the expression: a read of a string-keyed map
	// (m[string(b)]) and an operand of == or != against another string
	// (string(b) == s). A map keyed by an interface, or a comparison with
	// an interface, boxes the string and so copies it. Parents
	// are visited before their children, so such conversions are marked
	// borrowed here before the CallExpr case would report them; map
	// writes are marked first, because storing a key does copy it.
	borrowed := map[*ast.CallExpr]bool{}
	written := map[*ast.IndexExpr]bool{}
	markWrite := func(lhs ast.Expr) bool {
		idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			return false
		}
		tv, ok := info.Types[idx.X]
		if !ok {
			return false
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return false
		}
		written[idx] = true
		return true
	}

	ast.Inspect(n.Body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // its own node
		case *ast.GoStmt:
			add(Go, x.Pos(), "starts a goroutine")
		case *ast.SendStmt:
			add(Chan, x.Pos(), "channel send")
		case *ast.UnaryExpr:
			switch x.Op {
			case token.ARROW:
				add(Chan, x.Pos(), "channel receive")
			case token.AND:
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					add(Alloc, x.Pos(), "allocates (pointer to composite literal)")
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				add(Chan, x.Pos(), "blocking select")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					add(Chan, x.Pos(), "ranges over a channel")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					add(Alloc, x.Pos(), "allocates (slice literal)")
				case *types.Map:
					add(Alloc, x.Pos(), "allocates (map literal)")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if markWrite(lhs) {
					add(Alloc, ast.Unparen(lhs).Pos(), "map write")
				}
			}
		case *ast.IncDecStmt:
			if markWrite(x.X) {
				add(Alloc, ast.Unparen(x.X).Pos(), "map write")
			}
		case *ast.IndexExpr:
			if tv, ok := info.Types[x.X]; ok && !written[x] {
				if m, isMap := tv.Type.Underlying().(*types.Map); isMap && isString(m.Key()) {
					if call := bytesToString(info, x.Index); call != nil {
						borrowed[call] = true
					}
				}
			}
		case *ast.BinaryExpr:
			switch x.Op {
			case token.ADD:
				if tv, ok := info.Types[x]; ok && tv.Value == nil && isString(tv.Type) {
					add(Alloc, x.Pos(), "allocates (string concatenation)")
				}
			case token.EQL, token.NEQ:
				tx, okx := info.Types[x.X]
				ty, oky := info.Types[x.Y]
				if !okx || !oky || !isString(tx.Type) || !isString(ty.Type) {
					break
				}
				for _, operand := range []ast.Expr{x.X, x.Y} {
					if call := bytesToString(info, operand); call != nil {
						borrowed[call] = true
					}
				}
			}
		case *ast.CallExpr:
			if !borrowed[x] {
				g.callEffects(n, x, add)
			}
		}
		return true
	})
	g.effects[n] = es
	return es
}

// callEffects records the effects a single call expression contributes:
// builtins, allocating conversions, extern-table callees, and interface
// boxing of concrete arguments.
func (g *Graph) callEffects(n *Node, call *ast.CallExpr, add func(EffectKind, token.Pos, string)) {
	info := n.Src.Info
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "make":
				add(Alloc, call.Pos(), "allocates (make)")
			case "new":
				add(Alloc, call.Pos(), "allocates (new)")
			case "append":
				add(Alloc, call.Pos(), "allocates (append may grow)")
			}
			return
		}
	}

	// Conversions: only string <-> []byte/[]rune copy.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			if atv, ok := info.Types[call.Args[0]]; ok && convAllocates(atv.Type, tv.Type) {
				add(Alloc, call.Pos(), "allocates (string conversion)")
			}
		}
		return
	}

	// Extern-table callees (sourceless only; sourced callees compose).
	if fn := calleeOf(info, call); fn != nil && g.NodeOf(fn) == nil {
		if e, ok := externEffects[fn.FullName()]; ok {
			add(e.Kind, call.Pos(), e.Desc)
		}
	}

	// Interface boxing: a concrete (non-interface, non-nil) argument
	// passed to an interface-typed parameter escapes to the heap unless
	// the compiler proves otherwise; on a no-alloc path that is a bug.
	tv, ok := info.Types[fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok || atv.Type == nil {
			continue
		}
		if types.IsInterface(atv.Type) {
			continue
		}
		if b, ok := atv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		add(Alloc, arg.Pos(), "allocates (boxes "+atv.Type.String()+" into interface)")
	}
}

// convAllocates reports whether a conversion from -> to copies memory
// (string <-> []byte / []rune).
func convAllocates(from, to types.Type) bool {
	isByteOrRuneSlice := func(t types.Type) bool {
		return isSliceOf(t, types.Byte) || isSliceOf(t, types.Rune)
	}
	return (isString(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isString(to))
}

// bytesToString returns e as a []byte → string conversion, or nil when e
// is anything else.
func bytesToString(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || !isString(tv.Type) {
		return nil
	}
	atv, ok := info.Types[call.Args[0]]
	if !ok || !isSliceOf(atv.Type, types.Byte) {
		return nil
	}
	return call
}

// isString reports whether t's underlying type is a string type.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isSliceOf reports whether t is a slice whose element's underlying type
// is the basic kind (types.Byte and types.Rune alias Uint8 and Int32).
func isSliceOf(t types.Type, kind types.BasicKind) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

// Step is one hop of a call chain: the function, and the call site inside
// it that leads to the next step (NoPos for the last step — the effect's
// own function).
type Step struct {
	Node *Node
	Site token.Pos
}

// Finding is one effect reachable from a root, with the full call chain
// root → … → effect-carrying function.
type Finding struct {
	Effect Effect
	Chain  []Step
}

// reachEntry is a BFS queue entry carrying its own path for exact chain
// reconstruction (a node reached twice through different boundaries keeps
// the path that actually carried the offending effect bits).
type reachEntry struct {
	n    *Node
	mask EffectKind
	prev *reachEntry
	site token.Pos // call site in prev.n that reaches n
}

// Reach walks the call graph breadth-first from root and returns every
// effect site matching mask that some call path reaches. boundary, if
// non-nil, is consulted per callee: the returned bits are guaranteed by
// the callee's own contract and are subtracted before descending (the
// assume-guarantee cut that keeps findings attributed to one root). The
// root's own effects are always checked; boundary never applies to root.
// Findings are deduplicated by effect position and kind; chains are
// shortest-first by construction.
func (g *Graph) Reach(root *Node, mask EffectKind, boundary func(*Node) EffectKind) []Finding {
	if root == nil || mask == 0 {
		return nil
	}
	var findings []Finding
	type effKey struct {
		pos  token.Pos
		kind EffectKind
	}
	reported := make(map[effKey]bool)
	seen := make(map[*Node]EffectKind)

	queue := []*reachEntry{{n: root, mask: mask}}
	seen[root] = mask
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, eff := range g.Effects(e.n) {
			if eff.Kind&e.mask == 0 {
				continue
			}
			k := effKey{pos: eff.Pos, kind: eff.Kind}
			if reported[k] {
				continue
			}
			reported[k] = true
			var chain []Step
			for p := e; p != nil; p = p.prev {
				chain = append(chain, Step{Node: p.n, Site: p.site})
			}
			// chain is effect-function → root with sites shifted one hop;
			// reverse and re-attach each site to the caller that owns it.
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			for i := 0; i < len(chain)-1; i++ {
				chain[i].Site = chain[i+1].Site
			}
			chain[len(chain)-1].Site = token.NoPos
			findings = append(findings, Finding{Effect: eff, Chain: chain})
		}
		for _, edge := range g.Calls(e.n) {
			m := e.mask
			if boundary != nil {
				m &^= boundary(edge.Callee)
			}
			if m == 0 {
				continue
			}
			if new := m &^ seen[edge.Callee]; new == 0 {
				continue
			}
			seen[edge.Callee] |= m
			queue = append(queue, &reachEntry{n: edge.Callee, mask: m, prev: e, site: edge.Site})
		}
	}
	return findings
}

// divState memoizes divergence; computing doubles as the optimistic
// cycle answer (a recursive loop f → g → f is assumed to terminate).
type divState int

const (
	divUnknown divState = iota
	divComputing
	divNo
	divYes
)

// Diverges reports whether the function can never return: its CFG exit
// is unreachable from the entry once blocks that call divergent callees
// are truncated. Panics count as termination (the goroutine ends), and
// recursion is assumed terminating, so the answer is biased toward
// "terminates" — goleak only reports goroutines that provably loop
// forever with no exit path.
func (g *Graph) Diverges(n *Node) bool {
	switch g.diverges[n] {
	case divYes:
		return true
	case divNo, divComputing:
		return false
	}
	g.diverges[n] = divComputing

	graph := cfg.New(n.Body())
	info := n.Src.Info

	// A block is cut when it contains a call that never returns: paths
	// through it stop there.
	cut := func(b *cfg.Block) bool {
		for _, stmt := range b.Nodes {
			found := false
			ast.Inspect(stmt, func(x ast.Node) bool {
				if found {
					return false
				}
				switch x := x.(type) {
				case *ast.FuncLit:
					return false
				case *ast.SelectStmt:
					if len(x.Body.List) == 0 {
						found = true // select{} blocks forever
					}
				case *ast.CallExpr:
					if fn := calleeOf(info, x); fn != nil {
						if cn := g.NodeOf(fn); cn != nil && g.Diverges(cn) {
							found = true
						}
					}
				}
				return !found
			})
			if found {
				return true
			}
		}
		return false
	}

	reached := make(map[*cfg.Block]bool)
	stack := []*cfg.Block{graph.Entry}
	reached[graph.Entry] = true
	exitReachable := false
	for len(stack) > 0 && !exitReachable {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == graph.Exit {
			exitReachable = true
			break
		}
		if cut(b) {
			continue
		}
		for _, s := range b.Succs {
			if !reached[s] {
				reached[s] = true
				stack = append(stack, s)
			}
		}
	}

	if exitReachable {
		g.diverges[n] = divNo
		return false
	}
	g.diverges[n] = divYes
	return true
}
