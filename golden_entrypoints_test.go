package repro

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

const entryPointGoldenPath = "testdata/golden_entrypoints.json"

// entryPointCase pins every field of one facade call's answer. Fields are
// flattened by reflection into "path=value" lines, so fields without a JSON
// tag (CI.StdErr, CI.Level, CI.Walkers) are pinned too; floats are written
// in the shortest form that parses back to the same bits.
type entryPointCase struct {
	Call   string   `json:"call"`
	Fields []string `json:"fields"`
}

// goldenCases collects the pinned calls of one golden run.
type goldenCases []entryPointCase

// add pins every field of one call's answer and error.
func (c *goldenCases) add(call string, res any, err error) {
	var fields []string
	flattenFields("result", reflect.ValueOf(&res).Elem(), &fields)
	flattenFields("err", reflect.ValueOf(&err).Elem(), &fields)
	*c = append(*c, entryPointCase{Call: call, Fields: fields})
}

var errorType = reflect.TypeFor[error]()

// flattenFields appends one "path=value" line per leaf of v.
func flattenFields(path string, v reflect.Value, out *[]string) {
	if v.Kind() == reflect.Interface && v.Type().Implements(errorType) {
		if v.IsNil() {
			*out = append(*out, path+"=<nil>")
		} else {
			*out = append(*out, path+"=error: "+v.Interface().(error).Error())
		}
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			*out = append(*out, path+"=<nil>")
			return
		}
		flattenFields(path, v.Elem(), out)
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				flattenFields(path+"."+f.Name, v.Field(i), out)
			}
		}
	case reflect.Slice, reflect.Array:
		*out = append(*out, fmt.Sprintf("%s.len=%d", path, v.Len()))
		for i := range v.Len() {
			flattenFields(fmt.Sprintf("%s[%d]", path, i), v.Index(i), out)
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			flattenFields(fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k), out)
		}
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		s := strconv.FormatFloat(f, 'g', -1, 64)
		if math.IsNaN(f) {
			s = fmt.Sprintf("NaN(%#016x)", math.Float64bits(f))
		}
		*out = append(*out, path+"="+s)
	default:
		*out = append(*out, fmt.Sprintf("%s=%v", path, v.Interface()))
	}
}

// entryPointRun calls every public estimation entry point on one small
// stand-in, at one and four walkers and at a measured and a fixed burn-in.
func entryPointRun(t testing.TB) []entryPointCase {
	t.Helper()
	g, err := GenerateStandIn("facebook", 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	pair := LabelPair{T1: 1, T2: 2}
	pairs := []LabelPair{{T1: 1, T2: 1}, {T1: 1, T2: 2}, {T1: 2, T2: 2}}
	var out goldenCases
	add := out.add
	for _, w := range []int{1, 4} {
		for _, burn := range []int{0, 120} {
			tag := fmt.Sprintf("W=%d/BurnIn=%d", w, burn)
			for _, gap := range []int{0, 3} {
				r, err := EstimateSize(g, SizeOptions{Budget: 0.2, BurnIn: burn, CollisionGap: gap, Seed: 11, Walkers: w})
				add(fmt.Sprintf("EstimateSize/%s/CollisionGap=%d", tag, gap), r, err)
			}
			opts := EstimateOptions{Budget: 0.1, BurnIn: burn, Seed: 13, Walkers: w}
			for _, shape := range []string{MotifWedges, MotifTriangles} {
				r, err := CountMotifs(g, shape, pairs, opts)
				add(fmt.Sprintf("CountMotifs/%s/%s/labeled", tag, shape), r, err)
				r, err = CountMotifs(g, shape, nil, opts)
				add(fmt.Sprintf("CountMotifs/%s/%s/unlabeled", tag, shape), r, err)
			}
			for _, kind := range []MotifKind{LabeledWedges, LabeledTriangles} {
				r, err := EstimateLabeledMotif(g, pair, kind, opts)
				add(fmt.Sprintf("EstimateLabeledMotif/%s/%s", tag, kind), r, err)
			}
			mopts := MultiPairOptions{Budget: 0.1, BurnIn: burn, Seed: 17, Walkers: w}
			mr, err := EstimateManyPairs(g, pairs, mopts)
			add("EstimateManyPairs/"+tag, mr, err)
			br, err := EstimateBatch(g, mopts,
				TaskRequest{Kind: "pairs", Pairs: pairs},
				TaskRequest{Kind: "size"},
				TaskRequest{Kind: "census", Top: 5},
				TaskRequest{Kind: "motif", Motif: MotifTriangles, Pairs: pairs[:1]},
				TaskRequest{Kind: "motif", Motif: MotifWedges},
				TaskRequest{Kind: "assortativity"},
				TaskRequest{Kind: "assortativity", Variant: "label"},
			)
			add("EstimateBatch/"+tag, br, err)
			for _, m := range Methods() {
				o := opts
				o.Method = m
				r, err := EstimateTargetEdges(g, pair, o)
				add(fmt.Sprintf("EstimateTargetEdges/%s/%s", tag, m), r, err)
			}
		}
		r, err := DiscoverLabelPairsOpts(g, CensusOptions{Budget: 0.1, Seed: 19, Walkers: w})
		add(fmt.Sprintf("DiscoverLabelPairsOpts/W=%d", w), r, err)
	}
	for _, burn := range []int{0, 120} {
		r, err := EstimateToPrecision(g, pair, PrecisionOptions{TargetRelSE: 0.05, BurnIn: burn, Seed: 23})
		add(fmt.Sprintf("EstimateToPrecision/BurnIn=%d", burn), r, err)
	}
	nodes, edges, err := EstimateGraphSize(g, 0.2, 29)
	add("EstimateGraphSize", []float64{nodes, edges}, err)
	return out
}

// TestEntryPointGolden pins every field of every public estimation entry
// point's answer, so a refactor of the paths behind them must reproduce each
// answer bit for bit. Regenerate deliberately with
// go test -run TestEntryPointGolden -update-golden .
func TestEntryPointGolden(t *testing.T) {
	checkGolden(t, entryPointGoldenPath, entryPointRun(t))
}

// checkGolden compares got with the golden file at path call by call and
// field by field, or rewrites the file under -update-golden.
func checkGolden(t *testing.T, path string, got []entryPointCase) {
	t.Helper()
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (rerun with -update-golden to regenerate): %v", err)
	}
	var want []entryPointCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d calls, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Call != w.Call {
			t.Fatalf("call %d: got %q, golden has %q", i, g.Call, w.Call)
		}
		if len(g.Fields) != len(w.Fields) {
			t.Errorf("%s: got %d fields, want %d", g.Call, len(g.Fields), len(w.Fields))
			continue
		}
		for j := range w.Fields {
			if g.Fields[j] != w.Fields[j] {
				t.Errorf("%s: got %s, want %s", g.Call, g.Fields[j], w.Fields[j])
			}
		}
	}
}
