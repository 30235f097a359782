package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/quant"
)

func TestRegistryComplete(t *testing.T) {
	// Every paper artefact must be registered: Figures 1-5 and Table I.
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "table1"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("fig9"); err == nil {
		t.Error("unknown id did not error")
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"micro", "ci", "paper"} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Errorf("ScaleByName(%s): %v", name, err)
		}
		if s.Name != name {
			t.Errorf("ScaleByName(%s).Name = %s", name, s.Name)
		}
	}
	if s, err := ScaleByName(""); err != nil || s.Name != "ci" {
		t.Errorf("empty scale = (%v, %v), want ci default", s.Name, err)
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale did not error")
	}
}

func TestScaleProfilesAreOrdered(t *testing.T) {
	m, c, p := Micro(), CI(), Paper()
	if !(m.TrainN < c.TrainN && c.TrainN < p.TrainN) {
		t.Error("train sizes not increasing across profiles")
	}
	if !(m.Epochs < c.Epochs && c.Epochs < p.Epochs) {
		t.Error("epochs not increasing across profiles")
	}
	if p.Epochs != 200 || p.InputSize != 32 || p.Width != 1.0 {
		t.Errorf("paper profile deviates from §IV geometry: %+v", p)
	}
	if p.Milestones[0] != 100 || p.Milestones[1] != 150 {
		t.Errorf("paper milestones %v, want [100 150]", p.Milestones)
	}
	if p.Pad != 4 {
		t.Errorf("paper augmentation pad %d, want 4", p.Pad)
	}
}

func TestScaleBuilders(t *testing.T) {
	s := Micro()
	tr, te, err := s.Dataset(10, 0)
	if err != nil {
		t.Fatalf("Dataset: %v", err)
	}
	if tr.Len() != s.TrainN || te.Len() != s.TestN {
		t.Errorf("dataset sizes (%d, %d)", tr.Len(), te.Len())
	}
	if _, err := s.ResNet20(10); err != nil {
		t.Errorf("ResNet20: %v", err)
	}
	if _, err := s.MobileNetV2(10); err != nil {
		t.Errorf("MobileNetV2: %v", err)
	}
	if _, err := s.SmallCNN(10); err != nil {
		t.Errorf("SmallCNN: %v", err)
	}
	if lr := s.Schedule().LR(0); lr != s.LR {
		t.Errorf("schedule base LR = %v", lr)
	}
	if lr := s.ScheduleWarmup().LR(0); lr != 0.01 {
		t.Errorf("warmup LR = %v, want 0.01", lr)
	}
}

func TestClasses100Scaling(t *testing.T) {
	if got := Micro().classes100(); got != 10 {
		t.Errorf("micro classes100 = %d, want 10", got)
	}
	if got := CI().classes100(); got != 20 {
		t.Errorf("ci classes100 = %d, want 20", got)
	}
	if got := Paper().classes100(); got != 100 {
		t.Errorf("paper classes100 = %d, want 100", got)
	}
}

func TestReportRenderAndCSV(t *testing.T) {
	r := NewReport("figX", "A Title", "col1", "column2")
	r.AddRow("a", "1")
	r.AddRow("bb", "2,3")
	r.AddNote("hello %d", 42)
	r.SetSeries("s", []float64{1, 2})

	out := r.Render()
	for _, want := range []string{"figX", "A Title", "col1", "column2", "bb", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	csv := r.CSV()
	if !strings.Contains(csv, "col1,column2") {
		t.Errorf("CSV header missing: %q", csv)
	}
	if !strings.Contains(csv, `"2,3"`) {
		t.Errorf("CSV did not quote comma cell: %q", csv)
	}
	if len(r.Series["s"]) != 2 {
		t.Error("series not stored")
	}
}

func TestIsWeight(t *testing.T) {
	if !isWeight("resnet20.stem.conv.weight") {
		t.Error("conv weight not recognized")
	}
	if isWeight("resnet20.stem.bn.gamma") || isWeight("weight") {
		t.Error("non-weight recognized")
	}
}

// TestFig1MicroShape runs the cheapest full experiment end-to-end and
// checks the paper's qualitative shape: layer A starts below Tmin, gains
// bits monotonically while starving, and its Gavg recovers toward the
// threshold. Skipped in -short mode (a few seconds of training).
// TestGavgNoteFollowsData pins Fig 2's note to the direction the 8-bit
// Gavg series actually moved.
func TestGavgNoteFollowsData(t *testing.T) {
	for _, c := range []struct {
		first, last float64
		want        string
	}{
		{11.7, 337, "8-bit Gavg rose from 11.7 to 337 "},
		{1, 0.1, "8-bit Gavg decayed from 1 to 0.1 "},
		{0.5, 0.5, "8-bit Gavg held at 0.5 "},
	} {
		if got := gavgNote(c.first, c.last); !strings.HasPrefix(got, c.want) {
			t.Errorf("gavgNote(%g, %g) = %q, want prefix %q", c.first, c.last, got, c.want)
		}
	}
}

// TestRunOrderIndependent: every run of an artefact starts its
// augmentation stream from the state the dataset was built with, so a
// run's history does not depend on which runs of the artefact came
// before it — B trains the same after A as it does first.
func TestRunOrderIndependent(t *testing.T) {
	s := Micro()
	s.Epochs = 2
	spec := func(name string, tr, te data.Dataset) runSpec {
		m, err := s.SmallCNN(10)
		if err != nil {
			t.Fatalf("SmallCNN: %v", err)
		}
		sp := runSpec{model: m, train: tr, test: te, seed: 0xA}
		if name == "B" {
			if sp.apt, err = s.aptController(m, 6.0, 0, 6); err != nil {
				t.Fatalf("aptController: %v", err)
			}
			sp.seed = 0xB
		}
		return sp
	}
	historyOfB := func(order ...string) string {
		tr, te, err := s.Dataset(10, 2)
		if err != nil {
			t.Fatalf("Dataset: %v", err)
		}
		var got string
		for _, name := range order {
			h, err := s.execute(spec(name, tr, te), nil)
			if err != nil {
				t.Fatalf("run %s: %v", name, err)
			}
			if name == "B" {
				got = fmt.Sprintf("%#v %v %v", h.Epochs, h.FP32Energy, h.FP32SizeBits)
			}
		}
		return got
	}
	if ab, ba := historyOfB("A", "B"), historyOfB("B", "A"); ab != ba {
		t.Errorf("B's history depends on run order:\nafter A: %s\nfirst:   %s", ab, ba)
	}
}

func TestFig1MicroShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	rep, err := Fig1(Micro(), io.Discard)
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	ga := rep.Series["gavgA"]
	ba := rep.Series["bitsA"]
	if len(ga) != Micro().Epochs || len(ba) != len(ga) {
		t.Fatalf("trace lengths %d/%d, want %d", len(ga), len(ba), Micro().Epochs)
	}
	if ga[0] >= 1.0 {
		t.Errorf("layer A first Gavg = %v, want < Tmin=1 (starving layer)", ga[0])
	}
	checkBitTraces(t, map[string][]float64{"layer A": ba, "layer B": rep.Series["bitsB"]})
	if ba[len(ba)-1] <= ba[0] {
		t.Error("starving layer gained no bits")
	}
	// Gavg of layer A improves as precision rises.
	if ga[len(ga)-1] <= ga[0] {
		t.Errorf("layer A Gavg did not recover: %v -> %v", ga[0], ga[len(ga)-1])
	}
}

// TestDistMicroTraffic runs the dist extension end-to-end at Micro scale
// and checks the traffic shape: compressed uplinks beat fp32, and the
// bitwidth-aware broadcast beats the fp32 downlink. Skipped in -short
// mode (a few seconds of training).
func TestDistMicroTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	rep, err := Dist(Micro(), io.Discard)
	if err != nil {
		t.Fatalf("Dist: %v", err)
	}
	traffic := func(label string) (up, down float64) {
		s := rep.Series[label+" traffic"]
		if len(s) != 2 {
			t.Fatalf("missing traffic series for %q", label)
		}
		return s[0], s[1]
	}
	upFP32, downFP32 := traffic("fp32 up / fp32 down")
	up8, _ := traffic("8-bit up / fp32 down")
	upTern, _ := traffic("ternary up / fp32 down")
	_, downAPT := traffic("8-bit up / APT down")
	if !(up8 < upFP32/3) {
		t.Errorf("8-bit uplink %v not well under fp32 %v", up8, upFP32)
	}
	if !(upTern < up8) {
		t.Errorf("ternary uplink %v not under 8-bit %v", upTern, up8)
	}
	if !(downAPT < downFP32/2) {
		t.Errorf("APT downlink %v not under half of fp32 %v", downAPT, downFP32)
	}
}

// TestInferMicroBench runs the serving benchmark extension end-to-end at
// Micro scale: the engine paths must produce positive timings, the
// micro-batching server must coalesce requests, and the JSON report must
// land on disk. Skipped in -short mode (a training run plus benching).
func TestInferMicroBench(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	prev := InferBenchPath
	InferBenchPath = filepath.Join(t.TempDir(), "BENCH_infer.json")
	defer func() { InferBenchPath = prev }()
	rep, err := Infer(Micro(), io.Discard)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	for _, name := range []string{
		"int8_engine_forward_b1", "int8_engine_forward_b4",
		"int8_engine_forward_b16", "int8_engine_forward_b64",
		"float_model_forward_b1", "float_model_forward_b4",
		"float_model_forward_b16", "float_model_forward_b64",
	} {
		s := rep.Series[name]
		if len(s) != 2 || s[0] <= 0 || s[1] <= 0 {
			t.Errorf("series %q = %v, want positive (ns, samples/s)", name, s)
		}
	}
	sv := rep.Series["serving"]
	if len(sv) != 4 {
		t.Fatalf("serving series = %v", sv)
	}
	if sv[3] <= 1 {
		t.Errorf("serving mean batch %v, want > 1 (micro-batching coalesces)", sv[3])
	}
	raw, err := os.ReadFile(InferBenchPath)
	if err != nil {
		t.Fatalf("JSON report not written: %v", err)
	}
	var doc struct {
		Rows    []struct{ Name string } `json:"rows"`
		Serving struct {
			Requests uint64 `json:"requests"`
		} `json:"serving"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JSON report invalid: %v", err)
	}
	// The int8 and float batch sweeps, 1/4/16/64 each.
	if len(doc.Rows) != 8 || doc.Serving.Requests == 0 {
		t.Errorf("JSON report shape: %d rows, %d served requests", len(doc.Rows), doc.Serving.Requests)
	}
}

// checkBitTraces pins the controller's bit policy on traced runs with
// Tmax = +Inf: every recorded bitwidth lies in [quant.MinBits,
// quant.MaxBits] and no trace ever decreases.
func checkBitTraces(t *testing.T, traces map[string][]float64) {
	t.Helper()
	if len(traces) == 0 {
		t.Fatal("no bit traces recorded")
	}
	for name, tr := range traces {
		if len(tr) == 0 {
			t.Errorf("%s: empty bit trace", name)
		}
		for i, b := range tr {
			if b < quant.MinBits || b > quant.MaxBits {
				t.Errorf("%s: %v bits at epoch %d, outside [%d, %d]", name, b, i, quant.MinBits, quant.MaxBits)
			}
			if i > 0 && b < tr[i-1] {
				t.Errorf("%s: bits fell from %v to %v at epoch %d with Tmax = +Inf", name, tr[i-1], b, i)
			}
		}
	}
}

// TestFig5Claims pins Fig 5's claim as inequalities that survive float
// rounding changes beneath the trainer: a higher Tmin buys accuracy with
// energy and precision, so the Tmin = 100 run spends more normalized
// energy and more mean bits than the Tmin = 0.1 run (at Micro: 0.161 vs
// 0.086, 13.8 vs 6.0 bits). Every traced bitwidth obeys checkBitTraces.
// Skipped in -short mode (about 2 s of training).
func TestFig5Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	rep, err := Fig5(Micro(), io.Discard)
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	tmin, energy, bits := rep.Series["tmin"], rep.Series["energy"], rep.Series["meanbits"]
	lo, hi := -1, -1
	for i, v := range tmin {
		switch v {
		case 0.1:
			lo = i
		case 100:
			hi = i
		}
	}
	if lo < 0 || hi < 0 || len(energy) != len(tmin) || len(bits) != len(tmin) {
		t.Fatalf("Fig 5 series: tmin %v, energy %v, mean bits %v", tmin, energy, bits)
	}
	if !(energy[hi] > energy[lo]) {
		t.Errorf("normalized energy at Tmin=100 (%.3f) not above Tmin=0.1 (%.3f)", energy[hi], energy[lo])
	}
	if !(bits[hi] > bits[lo]) {
		t.Errorf("mean bits at Tmin=100 (%.2f) not above Tmin=0.1 (%.2f)", bits[hi], bits[lo])
	}
	traces := map[string][]float64{}
	for name, s := range rep.Series {
		if strings.HasPrefix(name, "bits ") {
			traces[name] = s
		}
	}
	checkBitTraces(t, traces)
}

// TestTable1Claims pins Table 1's memory column, the paper's §IV-C point:
// the methods without a master copy (APT 0.344 and WAGE 0.250 at Micro)
// train in less memory than fp32 and than every master-copy method (BNN,
// TWN, TTQ 1.061; DoReFa 1.244). It trains eleven models (about 10 s), so
// it runs only with APT_PAPER_PINS=1 (CI step paper-pins).
func TestTable1Claims(t *testing.T) {
	if os.Getenv("APT_PAPER_PINS") != "1" {
		t.Skip("set APT_PAPER_PINS=1 to run the Table 1 pins")
	}
	rep, err := Table1(Micro(), io.Discard)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	mem := func(label string) float64 {
		s := rep.Series["mem/"+label]
		if len(s) != 1 {
			t.Fatalf("no memory cell for %s", label)
		}
		return s[0]
	}
	for _, lean := range []string{"APT", "WAGE"} {
		if m := mem(lean); !(m < 1) {
			t.Errorf("%s trains in %.3f× fp32 memory, want below 1", lean, m)
		}
		for _, master := range []string{"BNN", "TWN", "TTQ", "DoReFa Net"} {
			if !(mem(lean) < mem(master)) {
				t.Errorf("%s memory %.3f not below master-copy %s %.3f", lean, mem(lean), master, mem(master))
			}
		}
	}
}
