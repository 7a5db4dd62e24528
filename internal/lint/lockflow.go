package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"repro/internal/lint/cfg"
)

// LockFlow is a lockset analysis of sync.Mutex and sync.RWMutex use. It
// runs a forward data-flow pass over each function's control-flow graph,
// tracking which locks are held on which paths, and reports:
//
//   - a return (or fall-off-the-end) while a lock acquired in the same
//     function is still held and no deferred release is registered — the
//     bug class behind leaked critical sections on error paths;
//   - a second Lock of a mutex already held on some path (self-deadlock),
//     including RLock→Lock upgrades on the same RWMutex;
//   - a read lock released with Unlock, or a write lock with RUnlock;
//   - a call into a module function — same package or, through the call
//     graph, any other loaded package — that re-acquires a lock the
//     caller still holds;
//   - a plain access to a struct field annotated "// guarded by <field>"
//     outside a critical section of its guard;
//   - a Store/Swap/CompareAndSwap on a sync/atomic field annotated
//     "// swapped under <field>" without the named sibling mutex
//     write-held — the copy-on-write publication discipline, where any
//     number of readers Load freely but only a serialized writer may swap
//     the published pointer.
//
// Lock identity is an identifier-rooted selector chain (s.mu, w.mu,
// pkgVar.mu); anything more complex — s.shards[i].mu, locks reached
// through calls — is deliberately not tracked, so the analysis stays
// silent rather than guessing about aliasing. Function literals get their
// own independent pass with an empty lockset (the caller's locks are
// unknown, so guard checking is disabled inside them), and functions
// whose name ends in "Locked" are exempt from guard checks by convention:
// their contract is that the caller holds the lock.
var LockFlow = &Analyzer{
	Name: "lockflow",
	Doc: "Lockset flow analysis: reports paths that return while a " +
		"sync.Mutex/RWMutex is still held without a deferred release, " +
		"double-Lock self-deadlocks, RLock/Unlock pair mismatches, calls " +
		"into module functions (cross-package, resolved through the call " +
		"graph) that re-acquire a held lock, plain " +
		"access to '// guarded by <field>' annotated struct fields " +
		"outside their guard's critical section, and atomic " +
		"Store/Swap/CompareAndSwap on '// swapped under <field>' " +
		"annotated fields without the sibling mutex write-held.",
	Run: runLockFlow,
}

// lockOp classifies one method of sync.Mutex/RWMutex.
type lockOp struct {
	acquire bool
	write   bool // Lock/Unlock as opposed to RLock/RUnlock
}

// lockOps maps the fully-qualified method names the analysis interprets.
// TryLock/TryRLock are conditional acquisitions and are ignored: modelling
// them needs path-sensitive branch correlation this lattice does not have.
var lockOps = map[string]lockOp{
	"(*sync.Mutex).Lock":      {acquire: true, write: true},
	"(*sync.Mutex).Unlock":    {acquire: false, write: true},
	"(*sync.RWMutex).Lock":    {acquire: true, write: true},
	"(*sync.RWMutex).Unlock":  {acquire: false, write: true},
	"(*sync.RWMutex).RLock":   {acquire: true, write: false},
	"(*sync.RWMutex).RUnlock": {acquire: false, write: false},
}

// lockRef is the resolved identity of a lock (or of a guarded field's
// base): a root object plus the field path selected from it.
type lockRef struct {
	root types.Object
	path string // ".mu"-style chain after the root; "" for the root itself
}

func (r lockRef) key() string {
	// The root's declaration position disambiguates shadowed names.
	return r.root.Name() + "@" + itoa(int(r.root.Pos())) + r.path
}

func (r lockRef) display() string { return r.root.Name() + r.path }

func (r lockRef) child(name string) lockRef {
	return lockRef{root: r.root, path: r.path + "." + name}
}

// itoa is strconv.Itoa without the import: keys are internal only.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// resolveLockRef resolves an identifier-rooted selector chain to a lock
// identity. It follows parentheses, pointer dereferences, and &; any
// index expression, call, or other computed base makes the expression
// untrackable and the function reports ok=false, which every caller
// treats as "stay silent".
func resolveLockRef(info *types.Info, e ast.Expr) (lockRef, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return lockRef{root: v}, true
		}
	case *ast.SelectorExpr:
		// pkg.GlobalVar: the qualified identifier is itself the root.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := info.Uses[e.Sel].(*types.Var); ok {
					return lockRef{root: v}, true
				}
				return lockRef{}, false
			}
		}
		base, ok := resolveLockRef(info, e.X)
		if !ok {
			return lockRef{}, false
		}
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
			return base.child(e.Sel.Name), true
		}
	case *ast.StarExpr:
		return resolveLockRef(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return resolveLockRef(info, e.X)
		}
	}
	return lockRef{}, false
}

// lockMethodRef resolves the lock a sync.Mutex/RWMutex method call
// operates on, including implicitly-selected embedded fields: e.Lock() on
// a struct embedding sync.Mutex really locks e.Mutex, and the guard
// annotation machinery needs that full path.
func lockMethodRef(info *types.Info, sel *ast.SelectorExpr) (lockRef, bool) {
	ref, ok := resolveLockRef(info, sel.X)
	if !ok {
		return lockRef{}, false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return ref, true
	}
	idx := s.Index()
	if len(idx) < 2 {
		return ref, true
	}
	t := s.Recv()
	for _, i := range idx[:len(idx)-1] {
		if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = p.Elem()
		}
		st, isStruct := t.Underlying().(*types.Struct)
		if !isStruct || i >= st.NumFields() {
			return ref, true
		}
		f := st.Field(i)
		ref = ref.child(f.Name())
		t = f.Type()
	}
	return ref, true
}

// lockHeld is the per-lock state tracked through the flow analysis.
type lockHeld struct {
	display  string
	write    bool      // held for writing (Lock) vs reading (RLock)
	deferred bool      // a deferred release has been registered
	must     bool      // held on every path reaching this point
	pos      token.Pos // acquisition site (earliest across joined paths)
}

// lockState maps lockRef keys to their held state. Presence in the map is
// the "may be held" set; the must flag marks the "held on all paths"
// subset. Return-while-held reports only on must (no false positives from
// conditional acquisition); double-lock reports on may (a deadlock on any
// path is a bug).
type lockState map[string]lockHeld

func cloneLockState(s lockState) lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinLockState(a, b lockState) lockState {
	out := make(lockState, len(a)+len(b))
	for k, ea := range a {
		if eb, ok := b[k]; ok {
			e := ea
			if eb.pos < e.pos {
				e.pos = eb.pos
				e.display = eb.display
			}
			e.write = ea.write || eb.write
			e.must = ea.must && eb.must
			e.deferred = ea.deferred && eb.deferred
			out[k] = e
			continue
		}
		ea.must = false
		out[k] = ea
	}
	for k, eb := range b {
		if _, ok := a[k]; !ok {
			eb.must = false
			out[k] = eb
		}
	}
	return out
}

func equalLockState(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ea := range a {
		eb, ok := b[k]
		if !ok || ea != eb {
			return false
		}
	}
	return true
}

// acqEntry is one lock acquisition in a function's summary, used for the
// re-acquisition check. Receiver-relative entries translate to the
// caller's receiver expression at the call site; global entries name a
// package-level lock directly by key.
type acqEntry struct {
	relative bool
	path     string // relative: ".mu"-style suffix; global: the lockRef key
	display  string
	write    bool
}

type lockAnalysis struct {
	pass      *Pass
	guards    map[*types.Var]string // annotated field -> guard field name
	swaps     map[*types.Var]string // "swapped under" field -> guard field name
	funcs     map[*types.Func]*ast.FuncDecl
	summaries map[*types.Func][]acqEntry
	visiting  map[*types.Func]bool
}

// reportCtx is non-nil during the reporting pass over the settled
// in-states and nil during fixpoint iteration, when nothing may report.
type reportCtx struct {
	guardChecks bool
	fresh       map[types.Object]bool // locals holding freshly-allocated values
}

func runLockFlow(pass *Pass) {
	a := &lockAnalysis{
		pass:      pass,
		guards:    collectAnnotated(pass, guardRe, "guarded by"),
		swaps:     collectAnnotated(pass, swapRe, "swapped under"),
		funcs:     make(map[*types.Func]*ast.FuncDecl),
		summaries: make(map[*types.Func][]acqEntry),
		visiting:  make(map[*types.Func]bool),
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				a.funcs[fn] = fd
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.checkFunc(fd.Name.Name, fd.Body, true)
			// Function literals run on their own activation: each body is
			// analysed independently with an empty lockset. Guard checks stay
			// off inside them — the literal may run under a caller's lock the
			// analysis cannot see.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					a.checkFunc(fd.Name.Name, lit.Body, false)
				}
				return true
			})
		}
	}
}

// checkFunc analyses one function (or function-literal) body: fixpoint
// first, then a deterministic reporting pass over the settled in-states.
func (a *lockAnalysis) checkFunc(name string, body *ast.BlockStmt, guardChecks bool) {
	g := cfg.New(body)
	in := cfg.Forward(g, lockState{}, cloneLockState, joinLockState, equalLockState,
		func(b *cfg.Block, st lockState) lockState {
			for _, n := range b.Nodes {
				a.node(n, st, nil)
			}
			return st
		})
	rctx := &reportCtx{
		// Functions named *Locked document that the caller holds the lock;
		// guard checking inside them would only produce noise.
		guardChecks: guardChecks && !strings.HasSuffix(name, "Locked"),
		fresh:       freshLocals(a.pass.Pkg.Info, body),
	}
	for _, b := range g.Blocks {
		st, ok := in[b]
		if !ok {
			continue // unreachable code
		}
		st = cloneLockState(st)
		for _, n := range b.Nodes {
			a.node(n, st, rctx)
			if ret, isRet := n.(*ast.ReturnStmt); isRet {
				a.checkHeldAt(ret.Pos(), st)
			}
		}
		if fallsToExit(g, b) {
			a.checkHeldAt(body.Rbrace, st)
		}
	}
}

// fallsToExit reports whether b reaches the exit block by falling off the
// end of the function rather than through an explicit return or panic.
func fallsToExit(g *cfg.Graph, b *cfg.Block) bool {
	toExit := false
	for _, s := range b.Succs {
		if s == g.Exit {
			toExit = true
		}
	}
	if !toExit {
		return false
	}
	if n := len(b.Nodes); n > 0 {
		switch last := b.Nodes[n-1].(type) {
		case *ast.ReturnStmt:
			return false
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return false
				}
			}
		}
	}
	return true
}

// checkHeldAt reports every lock that is held on all paths to pos with no
// deferred release registered.
func (a *lockAnalysis) checkHeldAt(pos token.Pos, st lockState) {
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := st[k]
		if e.must && !e.deferred {
			a.pass.Reportf(pos,
				"returns while %s (locked at line %d) is still held; unlock on this path or defer the unlock",
				e.display, a.pass.Fset.Position(e.pos).Line)
		}
	}
}

// node applies one CFG node to the lockset. With rctx == nil it only
// transforms state (fixpoint iteration); with rctx non-nil it also
// reports.
func (a *lockAnalysis) node(n ast.Node, st lockState, rctx *reportCtx) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		a.deferNode(n, st)
		return
	case *ast.RangeStmt:
		// The range head holds the whole RangeStmt for the per-iteration
		// assignment; its body lives in other blocks and must not be
		// processed here too.
		if n.Key != nil {
			a.node(n.Key, st, rctx)
		}
		if n.Value != nil {
			a.node(n.Value, st, rctx)
		}
		return
	case *ast.GoStmt:
		// The spawned call runs on another goroutine: re-acquiring a held
		// lock there blocks until the caller releases it, it does not
		// self-deadlock. Only the synchronously-evaluated arguments count.
		for _, arg := range n.Call.Args {
			a.node(arg, st, rctx)
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // analysed separately, on its own activation
		case *ast.CallExpr:
			a.call(x, st, rctx)
		case *ast.SelectorExpr:
			if rctx != nil && rctx.guardChecks {
				a.guardAccess(x, st, rctx)
			}
		}
		return true
	})
}

// deferNode registers deferred lock releases: both the direct
// `defer mu.Unlock()` form and releases inside a deferred function
// literal (`defer func() { ...; mu.Unlock() }()`).
func (a *lockAnalysis) deferNode(d *ast.DeferStmt, st lockState) {
	info := a.pass.Pkg.Info
	markRelease := func(call *ast.CallExpr) {
		fn := calleeFunc(info, call)
		if fn == nil {
			return
		}
		op, ok := lockOps[fn.FullName()]
		if !ok || op.acquire {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if ref, ok := lockMethodRef(info, sel); ok {
			if e, held := st[ref.key()]; held {
				e.deferred = true
				st[ref.key()] = e
			}
		}
	}
	markRelease(d.Call)
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				markRelease(call)
			}
			return true
		})
	}
}

// call interprets one call expression: a lock operation updates the
// lockset; a call into the same package is checked against its
// acquisition summary for re-acquiring a held lock.
func (a *lockAnalysis) call(call *ast.CallExpr, st lockState, rctx *reportCtx) {
	info := a.pass.Pkg.Info
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if op, ok := lockOps[fn.FullName()]; ok {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		ref, ok := lockMethodRef(info, sel)
		if !ok {
			return // untrackable lock expression: stay silent
		}
		k := ref.key()
		held, exists := st[k]
		if op.acquire {
			if exists {
				// Two read locks may coexist; everything else self-deadlocks.
				if rctx != nil && (op.write || held.write) {
					verb := "Lock"
					if !op.write {
						verb = "RLock"
					}
					a.pass.Reportf(call.Pos(),
						"%s of %s while it is already held (locked at line %d); this deadlocks",
						verb, ref.display(), a.pass.Fset.Position(held.pos).Line)
				}
				return // keep the original acquisition's state
			}
			st[k] = lockHeld{
				display: ref.display(),
				write:   op.write,
				must:    true,
				pos:     call.Pos(),
			}
			return
		}
		if exists {
			if rctx != nil && held.write != op.write {
				if op.write {
					a.pass.Reportf(call.Pos(),
						"Unlock of %s releases a read lock (RLock at line %d); use RUnlock",
						ref.display(), a.pass.Fset.Position(held.pos).Line)
				} else {
					a.pass.Reportf(call.Pos(),
						"RUnlock of %s releases a write lock (Lock at line %d); use Unlock",
						ref.display(), a.pass.Fset.Position(held.pos).Line)
				}
			}
			delete(st, k)
		}
		// Releasing a lock this function never acquired is a lock handoff
		// from the caller; nothing to track, nothing to report.
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		if rctx != nil && rctx.guardChecks {
			a.swapCall(call, fn, st, rctx)
		}
		return
	}
	// Module callee while holding a lock: consult its acquisition summary.
	// declFor resolves same-package callees from the local index and
	// everything else through the call graph, so the check crosses package
	// boundaries.
	if len(st) == 0 || rctx == nil {
		return
	}
	summary := a.summarize(fn)
	if len(summary) == 0 {
		return
	}
	var recvRef lockRef
	recvOK := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvRef, recvOK = resolveLockRef(info, sel.X)
	}
	for _, acq := range summary {
		var k, disp string
		if acq.relative {
			if !recvOK {
				continue
			}
			k = recvRef.key() + acq.path
			disp = recvRef.display() + acq.path
		} else {
			k = acq.path
			disp = acq.display
		}
		held, ok := st[k]
		if !ok {
			continue
		}
		if !acq.write && !held.write {
			continue // read lock under read lock: no self-deadlock
		}
		a.pass.Reportf(call.Pos(),
			"call to %s re-acquires %s, which is already held (locked at line %d); this deadlocks",
			fn.Name(), disp, a.pass.Fset.Position(held.pos).Line)
	}
}

// declFor resolves the declaration, type info, and package scope a
// summary for fn must be computed against: same-package functions come
// from the local index, everything else from the module call graph (when
// the driver built one — hand-built passes may run without it).
func (a *lockAnalysis) declFor(fn *types.Func) (*ast.FuncDecl, *types.Info, *types.Scope) {
	if fd := a.funcs[fn]; fd != nil {
		return fd, a.pass.Pkg.Info, a.pass.Pkg.Types.Scope()
	}
	if a.pass.Graph != nil {
		if n := a.pass.Graph.NodeOf(fn); n != nil && n.Decl != nil {
			return n.Decl, n.Src.Info, n.Src.Types.Scope()
		}
	}
	return nil, nil, nil
}

// summarize computes (and memoizes) the set of locks a module function
// acquires, directly or through module calls on its own receiver:
// receiver-relative paths for methods, keys for package-level locks.
// Callees in other packages resolve through the call graph, so a held
// lock handed across a package boundary is still checked. Function
// literals inside the body run asynchronously or deferred and are
// excluded.
func (a *lockAnalysis) summarize(fn *types.Func) []acqEntry {
	if s, done := a.summaries[fn]; done {
		return s
	}
	if a.visiting[fn] {
		return nil // recursion: the cycle's locks surface on the other path
	}
	fd, info, pkgScope := a.declFor(fn)
	if fd == nil {
		a.summaries[fn] = nil
		return nil
	}
	a.visiting[fn] = true
	defer delete(a.visiting, fn)

	var recvObj types.Object
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recvObj = info.Defs[fd.Recv.List[0].Names[0]]
	}

	var out []acqEntry
	seen := make(map[string]bool)
	add := func(e acqEntry) {
		k := e.path
		if e.relative {
			k = "recv" + k
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cf := calleeFunc(info, call)
		if cf == nil {
			return true
		}
		if op, ok := lockOps[cf.FullName()]; ok {
			if !op.acquire {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ref, ok := lockMethodRef(info, sel)
			if !ok {
				return true
			}
			switch {
			case recvObj != nil && ref.root == recvObj:
				add(acqEntry{relative: true, path: ref.path, display: ref.path, write: op.write})
			case ref.root.Parent() == pkgScope:
				add(acqEntry{path: ref.key(), display: ref.display(), write: op.write})
			}
			return true
		}
		if cf != fn {
			onOwnRecv := false
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && recvObj != nil {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					onOwnRecv = info.Uses[id] == recvObj
				}
			}
			for _, e := range a.summarize(cf) {
				if e.relative {
					if onOwnRecv {
						add(e)
					}
					continue
				}
				add(e)
			}
		}
		return true
	})
	a.summaries[fn] = out
	return out
}

// swapCall enforces the "// swapped under <field>" publication discipline
// on a sync/atomic method call: Load (and every other read) is free from
// anywhere, but Store, Swap, and CompareAndSwap on an annotated field
// require the named sibling mutex to be write-held — otherwise two writers
// could clone the same snapshot and one update would be silently lost.
func (a *lockAnalysis) swapCall(call *ast.CallExpr, fn *types.Func, st lockState, rctx *reportCtx) {
	switch fn.Name() {
	case "Store", "Swap", "CompareAndSwap":
	default:
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// The receiver must itself be a selection of an annotated struct field
	// (sh.view.Store(...)); anything else is not ours to police.
	fsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	info := a.pass.Pkg.Info
	v, ok := info.Uses[fsel.Sel].(*types.Var)
	if !ok {
		return
	}
	guard, ok := a.swaps[v]
	if !ok {
		return
	}
	ref, ok := resolveLockRef(info, fsel.X)
	if !ok {
		return // computed base: cannot name the guard instance, stay silent
	}
	if rctx.fresh[ref.root] {
		return // freshly allocated, not yet shared: no serialization needed
	}
	if held, ok := st[ref.child(guard).key()]; ok && held.write {
		return
	}
	a.pass.Reportf(sel.Sel.Pos(),
		"%s of %s.%s, which is declared // swapped under %s, but %s.%s is not write-held here",
		fn.Name(), ref.display(), fsel.Sel.Name, guard, ref.display(), guard)
}

// guardAccess checks a selector against the // guarded by annotations:
// touching an annotated field requires the sibling guard to be held.
func (a *lockAnalysis) guardAccess(sel *ast.SelectorExpr, st lockState, rctx *reportCtx) {
	info := a.pass.Pkg.Info
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	guard, ok := a.guards[v]
	if !ok {
		return
	}
	ref, ok := resolveLockRef(info, sel.X)
	if !ok {
		return // computed base: cannot name the guard instance, stay silent
	}
	if rctx.fresh[ref.root] {
		return // freshly allocated, not yet shared: no lock needed
	}
	if _, held := st[ref.child(guard).key()]; held {
		return
	}
	a.pass.Reportf(sel.Sel.Pos(),
		"%s.%s is declared // guarded by %s, but %s.%s is not held here",
		ref.display(), sel.Sel.Name, guard, ref.display(), guard)
}

// guardRe extracts the guard field name from a "// guarded by <field>"
// struct-field comment; swapRe does the same for "// swapped under
// <field>", the copy-on-write publication annotation.
var (
	guardRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)
	swapRe  = regexp.MustCompile(`swapped under ([A-Za-z_][A-Za-z0-9_]*)`)
)

// collectAnnotated gathers one annotation kind from struct field comments,
// validating that the named guard is a sibling field. label is the
// annotation's literal prefix, used in diagnostics.
func collectAnnotated(pass *Pass, re *regexp.Regexp, label string) map[*types.Var]string {
	out := make(map[*types.Var]string)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			siblings := make(map[string]bool)
			for _, fl := range st.Fields.List {
				for _, nm := range fl.Names {
					siblings[nm.Name] = true
				}
				if len(fl.Names) == 0 {
					if name := embeddedFieldName(fl.Type); name != "" {
						siblings[name] = true
					}
				}
			}
			for _, fl := range st.Fields.List {
				m := re.FindStringSubmatch(fieldCommentText(fl))
				if m == nil {
					continue
				}
				guard := m[1]
				if !siblings[guard] {
					pass.Reportf(fl.Pos(),
						"// %s %s: the struct has no field named %s", label, guard, guard)
					continue
				}
				for _, nm := range fl.Names {
					if nm.Name == guard {
						pass.Reportf(nm.Pos(),
							"field %s cannot be guarded by itself", guard)
						continue
					}
					if v, ok := pass.Pkg.Info.Defs[nm].(*types.Var); ok {
						out[v] = guard
					}
				}
			}
			return true
		})
	}
	return out
}

// fieldCommentText joins a struct field's doc and trailing comments.
func fieldCommentText(fl *ast.Field) string {
	var parts []string
	if fl.Doc != nil {
		parts = append(parts, fl.Doc.Text())
	}
	if fl.Comment != nil {
		parts = append(parts, fl.Comment.Text())
	}
	return strings.Join(parts, " ")
}

// embeddedFieldName is the implicit field name of an embedded type.
func embeddedFieldName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return embeddedFieldName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// freshLocals collects local variables bound to freshly allocated values
// (composite literals, &composites, new(T), or zero-value declarations):
// until such a value is shared, accessing its guarded fields without the
// lock is fine — this is what makes constructors clean.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	bind := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if !isFreshExpr(rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					bind(id)
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, id := range n.Names {
					bind(id)
				}
				return true
			}
			if len(n.Values) == len(n.Names) {
				for i, v := range n.Values {
					if isFreshExpr(v) {
						bind(n.Names[i])
					}
				}
			}
		}
		return true
	})
	return out
}

// isFreshExpr reports whether e evaluates to a freshly allocated value.
func isFreshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "new"
		}
	}
	return false
}
