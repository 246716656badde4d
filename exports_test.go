package eyeorg_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedExports lists the exported identifiers under internal/ that no
// non-test file of the module or of bench/ uses and that stay anyway,
// each with its reason. A key is the package's path in the module, then
// the identifier, then for a method the method's name.
var unusedExports = map[string]string{
	// Accessors that tests of another package read state through.
	"internal/platform/state.Campaign.Adaptive":  "test accessor: internal/platform's analytics tests build their oracle from the allocator",
	"internal/platform/state.Campaign.Analytics": "test accessor: internal/platform's analytics and retention tests read the live §4.3 campaign",
	"internal/platform/state.Campaign.Completed": "test accessor: builds a slice of views of the campaign's ID arena, which internal/platform's persist, spill, retention and telemetry tests count and look sessions up by",
	"internal/platform/state.State.Sessions":     "test accessor: the server's model comparison (server_test.go) walks every session",
	"internal/quality.Campaign.TimelineFiltered": "test accessor: the live band as a slice, the oracle of quality's and internal/platform's analytics tests",
	"internal/trace.Record.StageSum":             "test accessor: trace's and internal/platform's tests check that stages tile a request",
	"internal/netem.Path.ActiveConns":            "test accessor: netem's, tcpsim's and httpsim's tests check that closed conns leave the path",
	"internal/platform.Server.Draining":          "test accessor: cmd/eyeorg-server's TestDrainOnSIGTERM sees the drain start",
	"internal/flagdoc.Check":                     "test accessor: each binary's TestDocsFlagsRegistered holds its flags to the docs",

	// Benchmark debt: they go with internal/cluster and its probe.
	"internal/cluster.Ring.With":    "benchmark debt: only TestRingStability and TestRingDeterminism call it",
	"internal/cluster.Ring.Without": "benchmark debt: only TestRingDeterminism calls it",

	// Identifiers whose own tests are their only callers; each retires
	// with the tests named.
	"internal/dnssim.Resolver.FlushExpired":  "only TestFlushExpired",
	"internal/dnssim.Resolver.Reset":         "only TestResetColdCache",
	"internal/filtering.MaxTrustedActions":   "only TestMaxTrustedActions and TestMaxTrustedActionsZeroBaselineFallsBack",
	"internal/har.Builder.WriteJSON":         "only TestJSONShape and TestRoundTrip",
	"internal/har.Parse":                     "only TestRoundTrip and TestParseErrors",
	"internal/quality.Sketch.Len":            "only TestPropertySketchMatchesSample",
	"internal/simtime.Event.Cancel":          "only TestCancelPreventsFiring and TestCancelFromEarlierEvent",
	"internal/simtime.Event.Canceled":        "only TestCancelPreventsFiring",
	"internal/simtime.Scheduler.EventsFired": "only TestEventsFiredCounts and TestPropertySplitRunEquivalence",
	"internal/simtime.Scheduler.Halt":        "only TestHaltStopsRun",
	"internal/simtime.Scheduler.Pending":     "only TestRunUntilLeavesLaterEventsPending",
	"internal/simtime.Scheduler.RunUntil":    "only TestRunUntilInclusive, TestRunUntilLeavesLaterEventsPending, TestPropertyMonotonicClock and TestPropertySplitRunEquivalence",
	"internal/stats.CDF.Points":              "only TestCDFPoints",
	"internal/stats.CDF.Quantile":            "only TestCDFAtAndQuantile",
	"internal/stats.Sample.MeanAbsDeviation": "only TestMeanAbsDeviation",
	"internal/telemetry.Histogram.Count":     "only TestHistogramQuantile and TestRenderWhileRecording",
	"internal/telemetry.Gauge.Add":           "the delta gauge, which no production gauge is (each is a GaugeFunc): only TestGaugeDeltas and TestRenderGolden",
	"internal/telemetry.Registry.Gauge":      "the delta gauge, which no production gauge is (each is a GaugeFunc): only TestRenderGolden",
}

// listedPackage is the part of go list -json's output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// listPackages returns the packages ./... in dir is linked from, in
// go list -deps order: each after the packages it imports.
func listPackages(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps -json ./... in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
}

// moduleImporter hands the type checker the module's packages checked so
// far, and type-checks the standard library from source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.ImporterFrom
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// TestNoUnusedExports type-checks the non-test files of every package of
// the module and of bench/ and fails on each exported package-level
// identifier or method under internal/ that none of those files uses,
// unless unusedExports names it. Two kinds of method need no line:
// one that makes its type satisfy an interface the module declares or
// reaches in the standard library (error included), and one of a type
// that eyeorg.go's exported API reaches through exported fields,
// parameters and results. An unusedExports line whose identifier is
// gone, or now has a caller, fails too. Run it with -v to log the
// exports whose only callers are in bench/.
func TestNoUnusedExports(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	// The source importer reads build.Default. With cgo off it checks the
	// standard library's pure-Go files, as a CGO_ENABLED=0 build would,
	// and runs neither go tool cgo nor the C compiler on net and
	// runtime/cgo; no export of the module depends on that choice.
	defer func(ctx build.Context) { build.Default = ctx }(build.Default)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := moduleImporter{
		checked: map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	var (
		infos []*types.Info
		ours  []*types.Package // the module's packages, bench's aside
		api   []types.Object   // eyeorg.go's exported declarations
	)
	benchUse := map[types.Object]bool{} // used by a file of bench/
	use := map[types.Object]bool{}      // used by a file of the module
	for _, dir := range []string{".", "bench"} {
		for _, lp := range listPackages(t, dir) {
			if lp.Standard || imp.checked[lp.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			conf := types.Config{Importer: imp, Error: func(err error) { t.Errorf("type error: %v", err) }}
			pkg, _ := conf.Check(lp.ImportPath, fset, files, info)
			imp.checked[lp.ImportPath] = pkg
			infos = append(infos, info)
			used := use
			if dir == "bench" { // the module's packages came first
				used = benchUse
			} else {
				ours = append(ours, pkg)
			}
			for _, obj := range info.Uses {
				used[origin(obj)] = true
			}
			for _, sel := range info.Selections {
				used[origin(sel.Obj())] = true
			}
			if lp.ImportPath == module {
				for _, name := range pkg.Scope().Names() {
					obj := pkg.Scope().Lookup(name)
					if obj.Exported() && filepath.Base(fset.Position(obj.Pos()).Filename) == "eyeorg.go" {
						api = append(api, obj)
					}
				}
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	ifaces := interfaces(ours, infos)
	apiTypes := map[*types.Named]bool{}
	for _, obj := range api {
		reach(obj.Type(), apiTypes)
	}
	exempt := func(obj types.Object) bool {
		fn, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		named := receiverNamed(recv.Type())
		if apiTypes[named] {
			return true
		}
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, iface := range ifaces {
			if hasMethod(iface, fn.Name()) &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
		return false
	}

	found := map[string]bool{} // every checked export, by its key
	var benchOnly []string
	for _, pkg := range ours {
		rel, ok := strings.CutPrefix(pkg.Path(), module+"/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		for _, obj := range exports(pkg) {
			key := rel + "." + exportName(obj)
			found[key] = true
			reason, listed := unusedExports[key]
			switch {
			case use[obj] || exempt(obj):
				if listed {
					t.Errorf("%s has a caller or needs no line now; drop its unusedExports line (%s)", key, reason)
				}
			case benchUse[obj]:
				benchOnly = append(benchOnly, key)
				if listed {
					t.Errorf("%s has a caller in bench/ now; drop its unusedExports line (%s)", key, reason)
				}
			case !listed:
				t.Errorf("%s is exported and no non-test file uses it: delete it, unexport it, or add an unusedExports line with the reason it stays", key)
			}
		}
	}
	for key := range unusedExports {
		if !found[key] {
			t.Errorf("unusedExports names %s, which is gone; drop its line", key)
		}
	}
	sort.Strings(benchOnly)
	t.Logf("exports whose only non-test callers are in bench/: %s", strings.Join(benchOnly, " "))
}

// origin maps an object of an instantiated generic type or function to
// the one its package declares.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exports returns pkg's exported package-level identifiers and the
// exported methods of its named types.
func exports(pkg *types.Package) []types.Object {
	var objs []types.Object
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		objs = append(objs, obj)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					objs = append(objs, m)
				}
			}
		}
	}
	return objs
}

// exportName is obj's name, qualified by its receiver's type for a method.
func exportName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return receiverNamed(recv.Type()).Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Name()
}

// receiverNamed is the named type of a method's receiver.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// interfaces returns the non-generic interfaces with methods that a type
// can satisfy: the universe's error, every one declared at package level
// in a package the module reaches, and every one the module's files
// spell out in place.
func interfaces(ours []*types.Package, infos []*types.Info) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
			ifaces = append(ifaces, iface)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			visit(dep)
		}
	}
	for _, pkg := range ours {
		visit(pkg)
	}
	for _, info := range infos {
		for _, tv := range info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return ifaces
}

// hasMethod reports whether iface's method set has a method called name.
func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// reach adds to seen every named type of the module that t reaches
// through exported fields, parameters, results and element types.
func reach(t types.Type, seen map[*types.Named]bool) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if seen[t] || t.Obj().Pkg() == nil || !strings.HasPrefix(t.Obj().Pkg().Path(), module+"/") {
			return
		}
		seen[t] = true
		reach(t.Underlying(), seen)
	case *types.Pointer:
		reach(t.Elem(), seen)
	case *types.Slice:
		reach(t.Elem(), seen)
	case *types.Array:
		reach(t.Elem(), seen)
	case *types.Map:
		reach(t.Key(), seen)
		reach(t.Elem(), seen)
	case *types.Chan:
		reach(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				reach(f.Type(), seen)
			}
		}
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				reach(tuple.At(i).Type(), seen)
			}
		}
	}
}
