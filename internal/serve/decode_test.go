package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// checkAgainstJSON is the decode contract: whenever the fast path accepts
// a body, encoding/json accepts the same bytes with the same deadline and
// Float32bits-identical, identically shaped (nil vs empty included) input
// and inputs.
func checkAgainstJSON(t testing.TB, body []byte) (fast bool) {
	t.Helper()
	got, fast := decodeClassifyFast(body)
	if !fast {
		return false
	}
	var want classifyRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("fast path accepted %q, encoding/json says %v", clip(body), err)
	}
	if got.DeadlineMs != want.DeadlineMs {
		t.Fatalf("%q: deadline_ms %d, encoding/json %d", clip(body), got.DeadlineMs, want.DeadlineMs)
	}
	sameRow := func(what string, g, w []float32) {
		t.Helper()
		if (g == nil) != (w == nil) || len(g) != len(w) {
			t.Fatalf("%q: %s has %d values (nil %v), encoding/json %d (nil %v)",
				clip(body), what, len(g), g == nil, len(w), w == nil)
		}
		for i := range w {
			if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
				t.Fatalf("%q: %s[%d] = %#08x (%g), encoding/json %#08x (%g)", clip(body), what, i,
					math.Float32bits(g[i]), g[i], math.Float32bits(w[i]), w[i])
			}
		}
	}
	sameRow("input", got.Input, want.Input)
	if (got.Inputs == nil) != (want.Inputs == nil) || len(got.Inputs) != len(want.Inputs) {
		t.Fatalf("%q: %d inputs rows (nil %v), encoding/json %d (nil %v)",
			clip(body), len(got.Inputs), got.Inputs == nil, len(want.Inputs), want.Inputs == nil)
	}
	for r := range want.Inputs {
		sameRow(fmt.Sprintf("inputs[%d]", r), got.Inputs[r], want.Inputs[r])
	}
	return true
}

func clip(b []byte) []byte {
	if len(b) > 200 {
		return append(append([]byte(nil), b[:200]...), "…"...)
	}
	return b
}

// randomFloat32s draws float32 bit patterns, not values: every exponent
// including subnormals, both zeros; NaN and Inf (which JSON cannot carry)
// are redrawn.
func randomFloat32s(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		for {
			f := math.Float32frombits(rng.Uint32())
			if f == f && !math.IsInf(float64(f), 0) {
				out[i] = f
				break
			}
		}
	}
	return out
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeGrammar lists bodies on both sides of the fast-path grammar;
// TestClassifyDecodeGrammar pins the side, FuzzClassifyDecode starts from
// them.
var decodeGrammar = []struct {
	body string
	fast bool
}{
	// Inside: what clients send, plus legal variations of it.
	{`{"input": [1, 0, 0, 0]}`, true},
	{`{"inputs": [[1,0,0,0], [-1,0,0,0]]}`, true},
	{`{"inputs":[[1,2],[3]],"deadline_ms":250}`, true}, // ragged rows are the handler's to reject
	{`{"deadline_ms": 0, "input": [0.5]}`, true},
	{`{"deadline_ms": -5}`, true}, // the handler answers "negative deadline_ms"
	{`{"deadline_ms": -0}`, true},
	{`{"input": [1], "inputs": [[2]]}`, true}, // the handler answers "either, not both"
	{" \t\r\n{ \"input\" \n:\t[ 1 ,\r2 ] \n} \n", true},
	{`{}`, true},
	{`{"input": []}`, true},
	{`{"inputs": []}`, true},
	{`{"inputs": [[]]}`, true},
	{`{"inputs": [[], [1]]}`, true},
	{`{"input": [-0, 0, -0.0, 0e9, -0E-9, 0.000000000000000000000000000000]}`, true},
	{`{"input": [1e0, 1E+2, 1e-2, 12.5e-1, 1.25E1, 3.4028234663852886e38, 3.4028235e+38, 1e-45, 1.4e-45, 1e-46, 1.1754944e-38, 1.1754942e-38]}`, true},
	{`{"input": [16777216, 16777217, 16777218, 16777219, 9007199254740993, 123456789012345678901234567890]}`, true},
	// d lands exactly on a float32 rounding boundary while the decimal does
	// not: float32(d) alone would round these the wrong way.
	{`{"input": [9.000000476837159, 9.000000476837158, 1.0000000596046448, 1.0000000596046447]}`, true},
	{`{"input": [1e22, 1e23, 1e-22, 1e-23, 123456789e-31, 0.1e1, 100000000000000000000]}`, true},
	{`{"input": [1e-400, -1e-400, 0.1e-9999999999999999999]}`, true}, // underflow is ±0, not an error
	// At the edges of the word path (wordTokens), which reads tokens that
	// end past the body's 16th byte and have no whitespace around them:
	// 15, 16 and 17 significant digits, with and without a dot and sign;
	// small integers; zeros, exponents and tiny fractions; whitespace.
	{`{"input":[0.25,123456789012345,1234567890123456,12345678901234567,9999999999999999,0.12345678901234,0.123456789012345,-1.23456789012345,-1.234567890123456,12345678.12345678,1234567.123456789]}`, true},
	{`{"input":[0.25,0,255,-128,123.456,1,10,100.5,65535]}`, true},
	{`{"input":[0.25,-0,-0.0,0.000001,1e-7,1E+3,0.0000001,-0.000000000000001,5e0]}`, true},
	{`{"input":[0.25,1e5,1.5E-10,-2.5e+07,1e-0,1e+022,-0e-0,1.2345678e-9,1e-45,1e-38,1e38,1e-100,1e-1000,1e0005]}`, true},
	{`{"inputs": [[ 1.5 , -2 ], [` + "\t0.25\r\n,\n-0.125 " + `]]}`, true},
	{`{"input":[0.25,0.5,00.5]}`, false},
	{`{"input":[0.25,0.5,-01]}`, false},
	{`{"input":[0.25,0.5,1.5.5]}`, false},
	{`{"input":[0.25,0.5,.5]}`, false},
	{`{"input":[0.25,0.5,-.5]}`, false},
	{`{"input":[0.25,0.5,5.]}`, false},
	{`{"input":[0.25,0.5,1-5]}`, false},
	{`{"input":[0.25,0.5,1e]}`, false},
	{`{"input":[0.25,0.5,1e+]}`, false},
	{`{"input":[0.25,0.5,e5]}`, false},
	{`{"input":[0.25,0.5,-e5]}`, false},
	{`{"input":[0.25,0.5,1.e5]}`, false},
	{`{"input":[0.25,0.5,.5e5]}`, false},
	{`{"input":[0.25,0.5,01e1]}`, false},
	{`{"input":[0.25,0.5,1e5e5]}`, false},
	{`{"input":[0.25,0.5,1e5.5]}`, false},
	{`{"input":[0.25,0.5,1,]}`, false},
	{`{"input":[0.25,0.5,,1]}`, false},
	{`{"input":[0.25,0.5,1 2]}`, false},
	{`{"input":[0.25,0.5,[1]]}`, false},
	{`{"input":[0.25,0.5,"1"]}`, false},
	{`{"input":[0.25,12345678.5]`, false}, // then each prefix of "}" and padding: the last token ends 1…16 bytes before the body's end
	{`{"input":[0.25,12345678.5]}`, true},
	{`{"input":[0.25,12345678.5]} `, true},
	{`{"input":[0.25,12345678.5]}  `, true},
	{`{"input":[0.25,12345678.5]}   `, true},
	{`{"input":[0.25,12345678.5]}    `, true},
	{`{"input":[0.25,12345678.5]}     `, true},
	{`{"input":[0.25,12345678.5]}      `, true},
	{`{"input":[0.25,12345678.5]}       `, true},
	{`{"input":[0.25,12345678.5]}        `, true},
	{`{"input":[0.25,12345678.5]}         `, true},
	{`{"input":[0.25,12345678.5]}          `, true},
	{`{"input":[0.25,12345678.5]}           `, true},
	{`{"input":[0.25,12345678.5]}            `, true},
	{`{"input":[0.25,12345678.5]}             `, true},
	{`{"input":[0.25,12345678.5]}              `, true},
	{`{"input":[0.25,12345678.5]}               `, true},
	{`{"input":[0.25,0.5,2`, false}, // a row with no ']'
	{`{"inputs":[[0.25,0.5,2}`, false},
	// Outside: valid JSON that encoding/json must decide.
	{`{"input": null}`, false},
	{`{"inputs": null}`, false},
	{`{"inputs": [null, [1]]}`, false},
	{`{"inputs": [[1], null]}`, false},
	{`{"deadline_ms": null}`, false},
	{`null`, false},
	{`{"input": [1], "input": [2]}`, false},
	{`{"inputs": [[1]], "inputs": [[2]]}`, false},
	{`{"deadline_ms": 1, "deadline_ms": 2}`, false},
	{`{"INPUT": [1]}`, false},
	{`{"Inputs": [[1]]}`, false},
	{`{"Deadline_MS": 7}`, false},
	{`{"\u0069nput": [1]}`, false},
	{`{"inpu\u0074s": [[1]]}`, false},
	{`{"input": [1], "trace": {"a": [1, {"b": null}], "c": "]}"}}`, false},
	{`{"model": "x"}`, false},
	{`{"deadline_ms": 1.5}`, false},
	{`{"deadline_ms": 1e3}`, false},
	{`{"deadline_ms": 999999999}`, true}, // the most the fast path takes: far below Duration overflow
	{`{"deadline_ms": 1234567890}`, false},
	{`{"deadline_ms": 9223372036855}`, false},       // × 1e6 ns wraps int64: the handler's to refuse
	{`{"deadline_ms": 9223372036854775807}`, false}, // likewise
	{`{"deadline_ms": 9223372036854775808}`, false}, // not an int: encoding/json's to refuse
	{`{"deadline_ms": "5"}`, false},
	{`{"input": [1e39]}`, false},
	{`{"input": [-3.5e38]}`, false},
	{`{"input": [3.4028235678e38]}`, false},
	{`{"input": ["1"]}`, false},
	{`{"input": [[1]]}`, false},
	{`{"input": 1}`, false},
	{`{"inputs": [1]}`, false},
	{`{"inputs": {"0": [1]}}`, false},
	{`{"input": [true]}`, false},
	// Outside: not JSON at all.
	{``, false},
	{` `, false},
	{`{not json`, false},
	{`{"input": [01]}`, false},
	{`{"input": [-01]}`, false},
	{`{"input": [+1]}`, false},
	{`{"input": [.5]}`, false},
	{`{"input": [5.]}`, false},
	{`{"input": [1e]}`, false},
	{`{"input": [1e+]}`, false},
	{`{"input": [-]}`, false},
	{`{"input": [0x10]}`, false},
	{`{"input": [1_000]}`, false},
	{`{"input": [NaN]}`, false},
	{`{"input": [Infinity]}`, false},
	{`{"input": [1,]}`, false},
	{`{"input": [,1]}`, false},
	{`{"input": [1 2]}`, false},
	{`{"inputs": [[1],]}`, false},
	{`{"inputs": [[1] [2]]}`, false},
	{`{"input": [1],}`, false},
	{`{,"input": [1]}`, false},
	{`{"input" [1]}`, false},
	{`{"input": [1]`, false},
	{`{"input": [1]}}`, false},
	{`{"input": [1]} x`, false},
	{`{"input": [1]}{"input": [2]}`, false},
	{`{"deadline_ms": 01}`, false},
	{`{"deadline_ms": -}`, false},
	{`{"deadline_ms": 5x}`, false},
	{"{\"input\": [1\v]}", false}, // \v and \f are not JSON whitespace
	{"\ufeff{\"input\": [1]}", false},
}

func TestClassifyDecodeGrammar(t *testing.T) {
	for _, c := range decodeGrammar {
		if fast := checkAgainstJSON(t, []byte(c.body)); fast != c.fast {
			t.Errorf("%q: fast path accepted = %v, want %v", c.body, fast, c.fast)
		}
	}
	// A row over the admission cap is encoding/json's to count.
	row := []float32{1, 0, 0, 0}
	for n, fast := range map[int]bool{maxInputsPerRequest: true, maxInputsPerRequest + 1: false} {
		rows := make([][]float32, n)
		for i := range rows {
			rows[i] = row
		}
		if got := checkAgainstJSON(t, mustMarshal(t, classifyRequest{Inputs: rows})); got != fast {
			t.Errorf("%d rows: fast path accepted = %v, want %v", n, got, fast)
		}
	}
}

// TestClassifyDeadlineRange: a deadline_ms that time.Duration cannot hold is
// a bad request on either decode path — converted, it would wrap negative
// and the request would silently run with no deadline at all.
func TestClassifyDeadlineRange(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, c := range []struct {
		deadline string
		status   int
	}{
		{"999999999", http.StatusOK},     // fast path's largest
		{"9223372036854", http.StatusOK}, // encoding/json; the largest Duration in ms
		{"9223372036855", http.StatusBadRequest},
		{"9223372036854775807", http.StatusBadRequest},
		{"9223372036854775808", http.StatusBadRequest}, // bad JSON for an int field
		{"-1", http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify",
			strings.NewReader(`{"input": [1, 0, 0, 0], "deadline_ms": `+c.deadline+`}`)))
		if rec.Code != c.status {
			t.Errorf("deadline_ms %s: status %d (%s), want %d", c.deadline, rec.Code, strings.TrimSpace(rec.Body.String()), c.status)
		}
	}
}

// TestClassifyDecodeMatchesJSON is the bit-identity property on what
// clients actually send: json.Marshal of arbitrary float32 bit patterns
// takes the fast path and decodes to the very same bits, and so do longer
// and shorter spellings of the same values.
func TestClassifyDecodeMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	vals := randomFloat32s(rng, n)
	body := mustMarshal(t, classifyRequest{Input: vals})
	got, fast := decodeClassifyFast(body)
	if !fast {
		t.Fatal("json.Marshal of float32s missed the fast path")
	}
	for i, v := range vals {
		if math.Float32bits(got.Input[i]) != math.Float32bits(v) {
			t.Fatalf("value %d: sent %#08x (%g), decoded %#08x", i, math.Float32bits(v), v, math.Float32bits(got.Input[i]))
		}
	}
	checkAgainstJSON(t, body)

	// Other spellings: float64 shortest form of nearby doubles (17 digits:
	// strconv route), fixed precisions that land between float32s, 'e' and
	// 'f' forms, and the midpoints between adjacent float32s themselves.
	var sb bytes.Buffer
	sb.WriteString(`{"inputs":[[`)
	for i, v := range vals[:n/10] {
		if i > 0 {
			sb.WriteByte(',')
		}
		d := float64(v)
		mid := d // the exact midpoint between v and the next float32, where there is one
		if next := float64(math.Float32frombits(math.Float32bits(v) + 1)); next == next && !math.IsInf(next, 0) {
			mid = (d + next) / 2
		}
		switch i % 6 {
		case 0:
			near := d * (1 + rng.Float64()*1e-7)
			if math.Abs(near) > math.MaxFloat32 {
				near = d
			}
			sb.WriteString(strconv.FormatFloat(near, 'g', -1, 64))
		case 1:
			sb.WriteString(strconv.FormatFloat(d, 'e', 5+rng.Intn(12), 64))
		case 2:
			if a := math.Abs(d); a > 1e-12 && a < 1e15 {
				sb.WriteString(strconv.FormatFloat(d, 'f', rng.Intn(18), 64))
			} else {
				sb.WriteString(strconv.FormatFloat(d, 'e', -1, 32))
			}
		case 3: // rounded to 15–17 digits: beside the boundary, not on it
			sb.WriteString(strconv.FormatFloat(mid, 'e', 14+rng.Intn(3), 64))
		case 4:
			sb.WriteString(strconv.FormatFloat(mid, 'g', -1, 64))
		default:
			sb.WriteString(strconv.FormatFloat(d, 'E', -1, 32))
		}
	}
	sb.WriteString(`]]}`)
	if !checkAgainstJSON(t, sb.Bytes()) {
		t.Fatal("respelled floats missed the fast path")
	}
}

// TestWordPathTakesMarshalOutput fails by name when json.Marshal's
// float32 output leaves the word path: every token of N(0,1), N(0,1)·255,
// k/255, the integers 0–255 and N(0,1)·1e-8 (exponent form), as
// json.Marshal writes them, must be taken by wordTokens alone (no
// parseFloat32 fallback) and give parseFloat32's bits. Only a token that ends in the body's first 16
// bytes is the word path's to decline.
func TestWordPathTakesMarshalOutput(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(60))
	for _, c := range []struct {
		name string
		draw func(i int) float32
	}{
		{"N(0,1)", func(int) float32 { return float32(rng.NormFloat64()) }},
		{"N(0,1)·255", func(int) float32 { return float32(rng.NormFloat64() * 255) }},
		{"k/255", func(i int) float32 { return float32(i%256) / 255 }},
		{"0–255", func(i int) float32 { return float32(i % 256) }},
		{"N(0,1)·1e-8", func(int) float32 { return float32(rng.NormFloat64() * 1e-8) }}, // exponent form
	} {
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = c.draw(i)
		}
		body := mustMarshal(t, classifyRequest{Input: vals})
		var ends []int // the end of every token, its ',' or the ']'
		for i := bytes.IndexByte(body, '[') + 1; i < len(body); i++ {
			if body[i] == ',' || body[i] == ']' {
				ends = append(ends, i)
			}
		}
		start, skip := bytes.IndexByte(body, '[')+1, 0
		for ends[skip] < 16 {
			start, skip = ends[skip]+1, skip+1
		}
		got, k := wordTokens(body, start, ends[skip:], make([]float32, 0, len(ends)))
		if k != len(ends)-skip {
			e := ends[skip+k]
			t.Fatalf("%s: the word path declined token %d, %q", c.name, skip+k, body[bytes.LastIndexByte(body[:e], ',')+1:e])
		}
		for i, f := range got {
			e, s := ends[skip+i], start
			if i > 0 {
				s = ends[skip+i-1] + 1
			}
			want, next, ok := parseFloat32(body, s)
			if !ok || next != e || math.Float32bits(f) != math.Float32bits(want) {
				t.Fatalf("%s: %q: word path %#08x, parseFloat32 %#08x (ok %v)", c.name, body[s:e], math.Float32bits(f), math.Float32bits(want), ok)
			}
		}
	}
}

// TestParseFloat32Boundary pins the double-rounding guard by name: each
// literal's float64 sits exactly on the boundary between two float32s
// while the decimal itself lies to one side.
func TestParseFloat32Boundary(t *testing.T) {
	for lit, want := range map[string]uint32{
		"9.000000476837159":  0x41100001, // just above 9 + 2^-21: rounds up
		"9.000000476837158":  0x41100000, // just below: rounds down
		"16777217":           0x4b800000, // exactly halfway: ties to even
		"16777219":           0x4b800002,
		"-9.000000476837159": 0xc1100001,
	} {
		f, next, ok := parseFloat32([]byte(lit), 0)
		if !ok || next != len(lit) || math.Float32bits(f) != want {
			t.Errorf("parseFloat32(%s) = %#08x, %d, %v; want %#08x", lit, math.Float32bits(f), next, ok, want)
		}
		ref, err := strconv.ParseFloat(lit, 32)
		if err != nil || math.Float32bits(float32(ref)) != want {
			t.Errorf("strconv.ParseFloat(%s, 32) = %#08x, %v: the test's expectation is wrong", lit, math.Float32bits(float32(ref)), err)
		}
	}
}

// body16 is the benchmark's request: 16 samples of 3×16×16 floats drawn
// from N(0, scale²), as json.Marshal writes them (131 KB at scale 1).
func body16(t testing.TB, scale float64) []byte {
	rng := rand.New(rand.NewSource(16))
	rows := make([][]float32, 16)
	for i := range rows {
		rows[i] = make([]float32, 768)
		for j := range rows[i] {
			rows[i][j] = float32(rng.NormFloat64() * scale)
		}
	}
	return mustMarshal(t, classifyRequest{Inputs: rows})
}

// TestClassifyDecodeAllocs pins the fast path's steady state: one float
// block and one row-header slice per body, whatever its size.
func TestClassifyDecodeAllocs(t *testing.T) {
	body := body16(t, 1)
	if _, fast, err := decodeClassify(body); !fast || err != nil {
		t.Fatalf("16×768 body: fast %v, err %v", fast, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, fast, _ := decodeClassify(body); !fast {
			t.Fatal("fell off the fast path")
		}
	})
	if allocs > 2 {
		t.Errorf("decodeClassify allocates %.0f times per 16×768 body, want ≤ 2", allocs)
	}
}

func BenchmarkClassifyDecode16(b *testing.B) {
	benchmarkDecode(b, body16(b, 1))
}

// BenchmarkClassifyDecode16Exp decodes values json.Marshal writes in
// exponent form (|x| < 1e-6): the word path reads their mantissas and
// their exponents byte by byte.
func BenchmarkClassifyDecode16Exp(b *testing.B) {
	benchmarkDecode(b, body16(b, 1e-8))
}

func benchmarkDecode(b *testing.B, body []byte) {
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, fast, _ := decodeClassify(body); !fast {
			b.Fatal("fell off the fast path")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*16*768), "ns/float")
}

// BenchmarkClassifyDecode16StdJSON is the decode the handler used to run,
// on the same body, so the ratio can be re-measured anywhere.
func BenchmarkClassifyDecode16StdJSON(b *testing.B) {
	body := body16(b, 1)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var req classifyRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzClassifyDecode: for any bytes the decode does not panic, and what the
// fast path accepts encoding/json accepts, bit for bit (checkAgainstJSON).
func FuzzClassifyDecode(f *testing.F) {
	for _, c := range decodeGrammar {
		f.Add([]byte(c.body))
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 8; i++ {
		f.Add(mustMarshal(f, classifyRequest{Input: randomFloat32s(rng, 24)}))
		f.Add(mustMarshal(f, classifyRequest{
			Inputs:     [][]float32{randomFloat32s(rng, 5), {}, randomFloat32s(rng, 3)},
			DeadlineMs: rng.Intn(2000),
		}))
	}
	f.Add(mustMarshal(f, classifyRequest{Input: []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x00800000), math.MaxFloat32, -math.MaxFloat32,
	}}))
	// Truncation at, and just past, every structural byte.
	whole := `{"inputs": [[1.5, -2e-3], [0]], "deadline_ms": 40, "input": [7]}`
	for i := 0; i < len(whole); i++ {
		if strings.IndexByte(`{}[]:,"`, whole[i]) >= 0 {
			f.Add([]byte(whole[:i]))
			f.Add([]byte(whole[:i+1]))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstJSON(t, body)
		decodeClassify(body) // fallback included: no panic
	})
}

// TestClassifyBodyTooLarge: an over-limit body answers 413 — from
// Content-Length before a byte is read, and from the reader's error when
// the length is unknown. Neither case allocates the 64 MiB it declares.
func TestClassifyBodyTooLarge(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	r := httptest.NewRequest(http.MethodPost, "/classify", readFails{t})
	r.ContentLength = maxBodyBytes + 1
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("Content-Length over the cap: status %d, body %s", rec.Code, rec.Body)
	}
	if st := s.Stats(); st.HTTPRequests != 1 || st.DecodeBytes != 0 {
		t.Errorf("stats after a refused body: %+v", st)
	}

	// Unknown length: the same reader path with a small limit.
	r = httptest.NewRequest(http.MethodPost, "/classify", io.MultiReader(strings.NewReader(`{"input": [1, 0, 0, 0]}`)))
	if r.ContentLength != -1 {
		t.Fatalf("test request has Content-Length %d, want unknown", r.ContentLength)
	}
	if _, status, err := readBody(httptest.NewRecorder(), r, 8); err == nil || status != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked body over the limit: status %d, err %v", status, err)
	}
	r = httptest.NewRequest(http.MethodPost, "/classify", io.MultiReader(strings.NewReader(`{"input": [1, 0, 0, 0]}`)))
	buf, _, err := readBody(httptest.NewRecorder(), r, 64)
	if err != nil || buf.String() != `{"input": [1, 0, 0, 0]}` {
		t.Errorf("chunked body under the limit: %v, %v", buf, err)
	}
}

// readFails is a body that must not be read.
type readFails struct{ t *testing.T }

func (r readFails) Read([]byte) (int, error) {
	r.t.Error("body read although Content-Length was over the cap")
	return 0, io.ErrUnexpectedEOF
}

// captureClassifier records every sample the engine is handed, bit for bit.
type captureClassifier struct {
	mu   sync.Mutex
	seen map[[4]uint32]int
}

func (c *captureClassifier) Classify(x *tensor.Tensor) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := x.Data()
	for i := 0; i+4 <= len(d); i += 4 {
		var key [4]uint32
		for j := range key {
			key[j] = math.Float32bits(d[i+j])
		}
		c.seen[key]++
	}
	return make([]int, x.Dim(0)), nil
}

// TestHTTPClassifyDeliversExactBits: the engine receives exactly the float32
// bit patterns the client marshalled — subnormals, signed zeros and
// MaxFloat32 included — so what the handler answers is what Engine.Classify
// answers on the client's own floats.
func TestHTTPClassifyDeliversExactBits(t *testing.T) {
	capture := &captureClassifier{seen: map[[4]uint32]int{}}
	s, _ := newTestServer(t, Config{Engine: capture, MaxDelay: time.Millisecond})
	rng := rand.New(rand.NewSource(23))
	rows := make([][]float32, 64)
	for i := range rows {
		rows[i] = randomFloat32s(rng, 4)
	}
	rows[0] = []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.MaxFloat32}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify",
		bytes.NewReader(mustMarshal(t, classifyRequest{Inputs: rows}))))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	for i, row := range rows {
		var key [4]uint32
		for j := range key {
			key[j] = math.Float32bits(row[j])
		}
		if capture.seen[key] == 0 {
			t.Errorf("row %d %v (%#08x) never reached the engine bit-exact", i, row, key)
		}
		capture.seen[key]--
	}
	if st := s.Stats(); st.DecodeFallbacks != 0 {
		t.Errorf("json.Marshal output fell back to encoding/json %d time(s)", st.DecodeFallbacks)
	}
}
