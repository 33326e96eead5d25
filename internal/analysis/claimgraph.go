package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Claimgraph proves the module-wide lock order instead of asserting it
// one package at a time: it extracts every lock and claim acquisition
// in the whole program — sync.Mutex/RWMutex fields anywhere in the
// module, plus flash.BankSet bank claims — classifies each site by its
// owning type and field ("resource class"), and summarizes per function
// which classes it acquires, which it still holds at return, and which
// it releases on behalf of its caller. Summaries propagate across
// package boundaries as function facts, so a caller of a helper that
// returns holding a lock is known to hold that class through
// everything it does next.
//
// Two properties are checked over the resulting acquisition graph:
//
//   - the canonical rank order of the known classes (device mutex →
//     cluster router → mapping tier → bank claims): acquiring a
//     lower-ranked class while a higher-ranked one is held is reported
//     immediately, with the cross-package call chain that reached each
//     acquisition;
//
//   - absence of cycles among all classes, known or not: every
//     package exports its acquired-while-held edges as a package
//     fact, and each pass searches the accumulated global graph for a
//     cycle through one of its own edges, reporting the full witness
//     path. Same-class edges are exempt — ascending-index sweeps
//     within a class are legal.
//
// Deferred unlocks are honored (a function that locks and defers the
// unlock holds nothing at return); calls through interfaces or
// function values are not traced.
var Claimgraph = &Analyzer{
	Name: "claimgraph",
	Doc:  "prove the module-wide lock/claim acquisition order: canonical ranks plus cycle freedom",
	Run:  runClaimgraph,
}

// claimRank is the canonical total order over the known resource
// classes. Unranked classes (new locks, fixtures) participate only in
// cycle detection until they are assigned a slot here.
var claimRank = map[string]int{
	"envy.Device.mu":                   0,
	"envy/internal/cluster.Cluster.mu": 1,
	"envy/internal/maptier.Tier.mu":    2,
	bankClaimClass:                     3,
}

const claimRankDoc = "canonical order: Device.mu → cluster Cluster.mu → maptier Tier.mu → bank claims"

// bankClaimClass is the pseudo-lock class for BankSet claims. Claims
// are ownership tokens held across suspend/resume, not scoped critical
// sections, so they count as acquisition events (edge targets) but are
// not propagated in held-sets across function returns.
const bankClaimClass = "envy/internal/flash.BankSet.claim"

// A claimAcq is one resource acquisition: its class, an optional
// constant index within the class, where it happened, and the call
// chain from the summarized function to the site.
type claimAcq struct {
	Class  string   `json:"class"`
	Idx    int64    `json:"idx,omitempty"`
	HasIdx bool     `json:"hasIdx,omitempty"`
	Site   string   `json:"site"`
	Path   []string `json:"path,omitempty"`
}

// A claimFact summarizes one function for its callers: every class it
// (transitively) acquires, the classes still held when it returns, and
// the classes it releases on its caller's behalf.
type claimFact struct {
	Acquires []claimAcq `json:"acquires,omitempty"`
	Held     []claimAcq `json:"held,omitempty"`
	Releases []claimAcq `json:"releases,omitempty"`
}

// A claimEdge records that To was acquired while From was held.
type claimEdge struct {
	From claimAcq `json:"from"`
	To   claimAcq `json:"to"`
	Site string   `json:"site"` // where the acquisition creating the edge happened
}

// claimPkgFact is the package's contribution to the global graph.
type claimPkgFact struct {
	Edges []claimEdge `json:"edges,omitempty"`
}

type localAcq struct {
	claimAcq
	pos token.Pos
}

type localEdge struct {
	claimEdge
	pos token.Pos
}

// maxClaimList bounds the per-function summary lists; one witness per
// class/index pair is enough.
const maxClaimList = 16

func runClaimgraph(pass *Pass) error {
	decls := declaredFuncs(pass)
	byObj := make(map[*types.Func]declFunc, len(decls))
	for _, d := range decls {
		byObj[d.obj] = d
	}

	var edges []localEdge
	edgeSeen := make(map[string]bool)
	addEdge := func(from, to claimAcq, pos token.Pos) {
		key := acqKey(from) + ">" + acqKey(to)
		if edgeSeen[key] {
			return
		}
		edgeSeen[key] = true
		edges = append(edges, localEdge{claimEdge{From: from, To: to, Site: site(pass.Fset, pos)}, pos})
	}

	memo := make(map[*types.Func]*claimFact)
	visiting := make(map[*types.Func]bool)
	var summarize func(fn *types.Func) *claimFact
	summarize = func(fn *types.Func) *claimFact {
		if got, ok := memo[fn]; ok {
			return got
		}
		if visiting[fn] {
			return &claimFact{}
		}
		visiting[fn] = true
		defer delete(visiting, fn)

		d, ok := byObj[fn]
		if !ok {
			return &claimFact{}
		}
		w := &claimWalker{pass: pass, summarize: summarize, addEdge: addEdge}
		w.walk(d.decl.Body)
		fact := w.finish()
		memo[fn] = fact
		return fact
	}

	for _, d := range decls {
		if pass.InTestFile(d.decl.Pos()) {
			continue
		}
		fact := summarize(d.obj)
		if len(fact.Acquires) > 0 || len(fact.Held) > 0 || len(fact.Releases) > 0 {
			pass.ExportFunctionFact(d.obj, *fact)
		}
	}

	// Rank check on this package's own edges. Rank-violating edges are
	// excluded from cycle search: the violation itself is the report.
	badEdge := make(map[string]bool)
	for _, e := range edges {
		fr, fok := claimRank[e.From.Class]
		tr, tok := claimRank[e.To.Class]
		if fok && tok && fr > tr {
			badEdge[acqKey(e.From)+">"+acqKey(e.To)] = true
			pass.Reportf(e.pos, "claimgraph: %s acquired while %s is held (held since %s); %s",
				describeAcq(e.To), e.From.Class, describeAcq(e.From), claimRankDoc)
		}
	}

	// Assemble the global graph: every dependency's exported edges plus
	// this package's, then search for cycles through a local edge.
	var global []claimEdge
	for _, path := range pass.PackageFactPaths() {
		if path == pass.Pkg.Path() {
			continue
		}
		var fact claimPkgFact
		if pass.ImportPackageFact(path, &fact) {
			global = append(global, fact.Edges...)
		}
	}
	for _, e := range edges {
		global = append(global, e.claimEdge)
	}

	adj := make(map[string][]claimEdge)
	for _, e := range global {
		if e.From.Class == e.To.Class {
			continue
		}
		if fr, fok := claimRank[e.From.Class]; fok {
			if tr, tok := claimRank[e.To.Class]; tok && fr > tr {
				continue // rank violations are reported directly, not as cycles
			}
		}
		adj[e.From.Class] = append(adj[e.From.Class], e)
	}
	for from := range adj {
		sort.SliceStable(adj[from], func(i, j int) bool {
			if adj[from][i].To.Class != adj[from][j].To.Class {
				return adj[from][i].To.Class < adj[from][j].To.Class
			}
			return adj[from][i].Site < adj[from][j].Site
		})
	}

	cycleSeen := make(map[string]bool)
	for _, e := range edges {
		if e.From.Class == e.To.Class || badEdge[acqKey(e.From)+">"+acqKey(e.To)] {
			continue
		}
		back := findPath(adj, e.To.Class, e.From.Class)
		if back == nil {
			continue
		}
		cycle := append([]claimEdge{e.claimEdge}, back...)
		classes := make([]string, 0, len(cycle))
		for _, ce := range cycle {
			classes = append(classes, ce.From.Class)
		}
		sortedClasses := append([]string(nil), classes...)
		sort.Strings(sortedClasses)
		key := strings.Join(sortedClasses, "|")
		if cycleSeen[key] {
			continue
		}
		cycleSeen[key] = true
		var witness []string
		for _, ce := range cycle {
			step := ce.From.Class + " → " + ce.To.Class + " at " + ce.Site
			if len(ce.To.Path) > 0 {
				step += " via " + strings.Join(ce.To.Path, " → ")
			}
			witness = append(witness, step)
		}
		pass.Reportf(e.pos, "claimgraph: lock-order cycle %s → %s; %s",
			strings.Join(classes, " → "), classes[0], strings.Join(witness, "; "))
	}

	pass.ExportPackageFact(claimPkgFact{Edges: serializeEdges(edges)})
	return nil
}

// findPath searches the class graph for a path from class `from` back
// to class `to`, returning the edges along it (deterministically — the
// adjacency lists are sorted), or nil.
func findPath(adj map[string][]claimEdge, from, to string) []claimEdge {
	visited := make(map[string]bool)
	var dfs func(cur string) []claimEdge
	dfs = func(cur string) []claimEdge {
		if visited[cur] {
			return nil
		}
		visited[cur] = true
		for _, e := range adj[cur] {
			if e.To.Class == to {
				return []claimEdge{e}
			}
			if rest := dfs(e.To.Class); rest != nil {
				return append([]claimEdge{e}, rest...)
			}
		}
		return nil
	}
	return dfs(from)
}

func serializeEdges(edges []localEdge) []claimEdge {
	out := make([]claimEdge, len(edges))
	for i, e := range edges {
		out[i] = e.claimEdge
	}
	return out
}

func acqKey(a claimAcq) string {
	key := a.Class
	if a.HasIdx {
		key += "[" + strconv.FormatInt(a.Idx, 10) + "]"
	}
	return key
}

func describeAcq(a claimAcq) string {
	s := acqKey(a) + " at " + a.Site
	if len(a.Path) > 0 {
		s += " via " + strings.Join(a.Path, " → ")
	}
	return s
}

// claimWalker tracks the lexically held resource set through one
// function body, recording acquired-while-held edges and building the
// function's summary.
type claimWalker struct {
	pass      *Pass
	summarize func(fn *types.Func) *claimFact
	addEdge   func(from, to claimAcq, pos token.Pos)

	held     []claimAcq
	pending  []claimAcq // deferred releases, applied at function end
	releases []claimAcq // net releases on the caller's behalf
	acquires []claimAcq // every acquisition event, deduplicated
}

func (w *claimWalker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			w.collectDeferred(n)
			return false
		case *ast.FuncLit:
			// A literal (goroutine body or closure) inherits the held
			// set — it runs under whatever the spawner holds — but its
			// own lock traffic stays local to it.
			inner := &claimWalker{pass: w.pass, summarize: w.summarize, addEdge: w.addEdge,
				held: append([]claimAcq(nil), w.held...)}
			inner.walk(n.Body)
			w.recordAcquires(inner.acquires...)
			return false
		case *ast.CallExpr:
			w.call(n)
			return true
		}
		return true
	})
}

// call processes one call expression: a direct acquisition or release
// of a classified resource, or a call whose summary (local or via
// fact) acts on the held set.
func (w *claimWalker) call(call *ast.CallExpr) {
	if acq, release, ok := classifyClaimCall(w.pass, call); ok {
		if release {
			w.release(acq)
		} else {
			w.acquire(acq, call.Pos())
		}
		return
	}
	callee := staticCallee(w.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	fact := w.calleeFact(callee)
	if fact == nil {
		return
	}
	step := displayName(w.pass.Pkg, callee)
	for _, a := range fact.Acquires {
		chained := a
		chained.Path = append([]string{step}, a.Path...)
		for _, h := range w.held {
			w.addEdge(h, chained, call.Pos())
		}
		w.recordAcquires(chained)
	}
	for _, r := range fact.Releases {
		w.release(r)
	}
	for _, h := range fact.Held {
		chained := h
		chained.Path = append([]string{step}, h.Path...)
		chained.Site = site(w.pass.Fset, call.Pos())
		if len(w.held) < maxClaimList {
			w.held = append(w.held, chained)
		}
	}
}

// calleeFact resolves a callee's summary: recursively for functions in
// this package, from the fact store for other module packages.
func (w *claimWalker) calleeFact(callee *types.Func) *claimFact {
	if callee.Pkg() == w.pass.Pkg {
		return w.summarize(callee)
	}
	if inModule(callee.Pkg()) {
		var fact claimFact
		if w.pass.ImportFunctionFact(callee, &fact) {
			return &fact
		}
	}
	return nil
}

func (w *claimWalker) acquire(acq claimAcq, pos token.Pos) {
	for _, h := range w.held {
		w.addEdge(h, acq, pos)
	}
	if len(w.held) < maxClaimList {
		w.held = append(w.held, acq)
	}
	w.recordAcquires(acq)
}

// release removes the matching held entry (preferring an exact
// class+index match, then any entry of the class, searching newest
// first); a release with no held match is a net release the caller
// must account for.
func (w *claimWalker) release(acq claimAcq) {
	if w.removeHeld(acq) {
		return
	}
	if len(w.releases) < maxClaimList {
		w.releases = append(w.releases, acq)
	}
}

func (w *claimWalker) removeHeld(acq claimAcq) bool {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].Class == acq.Class && w.held[i].HasIdx == acq.HasIdx && (!acq.HasIdx || w.held[i].Idx == acq.Idx) {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return true
		}
	}
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].Class == acq.Class {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return true
		}
	}
	return false
}

func (w *claimWalker) recordAcquires(acqs ...claimAcq) {
	for _, a := range acqs {
		dup := false
		for _, have := range w.acquires {
			if acqKey(have) == acqKey(a) {
				dup = true
				break
			}
		}
		if !dup && len(w.acquires) < maxClaimList {
			w.acquires = append(w.acquires, a)
		}
	}
}

// collectDeferred scans a defer statement for releases — direct
// Unlock/RUnlock/Release calls and calls to functions whose summary
// releases classes — which apply when the function returns.
func (w *claimWalker) collectDeferred(d *ast.DeferStmt) {
	ast.Inspect(d, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if acq, release, ok := classifyClaimCall(w.pass, call); ok && release {
			w.pending = append(w.pending, acq)
			return true
		}
		if callee := staticCallee(w.pass.TypesInfo, call); callee != nil {
			if fact := w.calleeFact(callee); fact != nil {
				w.pending = append(w.pending, fact.Releases...)
			}
		}
		return true
	})
}

// finish applies pending deferred releases and produces the summary.
// Bank claims never survive into Held or Releases: they are ownership
// tokens managed by the scheduler across operations, not scoped locks.
func (w *claimWalker) finish() *claimFact {
	for _, r := range w.pending {
		w.removeHeld(r)
	}
	fact := &claimFact{Acquires: w.acquires}
	for _, h := range w.held {
		if h.Class != bankClaimClass {
			fact.Held = append(fact.Held, h)
		}
	}
	for _, r := range w.releases {
		if r.Class != bankClaimClass {
			fact.Releases = append(fact.Releases, r)
		}
	}
	return fact
}

// classifyClaimCall recognizes resource acquisitions and releases: the
// Lock/RLock/Unlock/RUnlock methods of a sync mutex reached through a
// module-owned struct field, and BankSet.Claim/Release. ok is false
// for every other call.
func classifyClaimCall(pass *Pass, call *ast.CallExpr) (acq claimAcq, release, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return claimAcq{}, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if !mutexMethod(pass, sel) {
			return claimAcq{}, false, false
		}
		class, idx, hasIdx, classOK := receiverClaimClass(pass, sel.X)
		if !classOK {
			return claimAcq{}, false, false
		}
		acq = claimAcq{Class: class, Idx: idx, HasIdx: hasIdx, Site: site(pass.Fset, call.Pos())}
		return acq, sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock", true
	case "Claim", "Release":
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal {
			return claimAcq{}, false, false
		}
		if typeClass(namedOf(selection.Recv())) != "envy/internal/flash.BankSet" {
			return claimAcq{}, false, false
		}
		acq = claimAcq{Class: bankClaimClass, Site: site(pass.Fset, call.Pos())}
		if len(call.Args) > 0 {
			if tv, okTV := pass.TypesInfo.Types[call.Args[0]]; okTV && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if idx, exact := constant.Int64Val(tv.Value); exact {
					acq.Idx, acq.HasIdx = idx, true
				}
			}
		}
		return acq, sel.Sel.Name == "Release", true
	}
	return claimAcq{}, false, false
}

// receiverClaimClass classifies a mutex receiver expression by its
// owning module type and field: `x.mu` → "pkg.Type.mu",
// `t.shards[i]` → "pkg.Type.shards" (with the index when constant),
// and a package-level mutex variable → "pkg.var". Local mutex
// variables and non-module owners are not classified.
func receiverClaimClass(pass *Pass, expr ast.Expr) (class string, idx int64, hasIdx bool, ok bool) {
	expr = ast.Unparen(expr)
	if ie, isIdx := expr.(*ast.IndexExpr); isIdx {
		if tv, okTV := pass.TypesInfo.Types[ie.Index]; okTV && tv.Value != nil && tv.Value.Kind() == constant.Int {
			if v, exact := constant.Int64Val(tv.Value); exact {
				idx, hasIdx = v, true
			}
		}
		expr = ast.Unparen(ie.X)
	}
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		tv, okTV := pass.TypesInfo.Types[e.X]
		if !okTV {
			return "", 0, false, false
		}
		owner := typeClass(namedOf(tv.Type))
		if owner == "" || !inModulePath(owner) {
			return "", 0, false, false
		}
		return owner + "." + e.Sel.Name, idx, hasIdx, true
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && inModule(v.Pkg()) {
			return v.Pkg().Path() + "." + v.Name(), idx, hasIdx, true
		}
	}
	return "", 0, false, false
}

// inModulePath reports whether a "pkgpath.Type" class string names a
// module-owned type.
func inModulePath(class string) bool {
	return class == "envy" || strings.HasPrefix(class, "envy.") || strings.HasPrefix(class, "envy/")
}

// inModule reports whether pkg belongs to this module.
func inModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == "envy" || strings.HasPrefix(pkg.Path(), "envy/")
}

// site renders a position as file:line using the file's base name, so
// facts and messages stay stable across checkouts.
func site(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(p.Line)
}

// mutexMethod reports whether sel names a method of sync.Mutex or
// sync.RWMutex.
func mutexMethod(pass *Pass, sel *ast.SelectorExpr) bool {
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return false
	}
	class := typeClass(namedOf(selection.Recv()))
	return class == "sync.Mutex" || class == "sync.RWMutex"
}
