package runtime

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// jsonStrings covers every escaping rule encoding/json applies.
var jsonStrings = []string{
	"", "plain", "w17", `quote " and backslash \`, "<script>&amp;</script>",
	"tab\tnewline\nreturn\rbackspace\bformfeed\f", "nul \x00 unit \x1f del \x7f",
	"non-ASCII τ é 😀", "line sep \u2028 para sep \u2029", "bad \xff utf8 \xc3",
	"truncated \xe2\x82", "surrogate half \xed\xa0\x80",
}

// randString draws from the escaping-relevant alphabet plus raw bytes.
func randString(rnd *rand.Rand) string {
	if rnd.Intn(3) == 0 {
		return jsonStrings[rnd.Intn(len(jsonStrings))]
	}
	alphabet := []string{"a", "Z", "0", " ", `"`, `\`, "<", ">", "&", "\n", "\x01", "\x7f",
		"é", "τ", "😀", "\u2028", "\u2029", "\xff", "\xc3", " ", "\ufffd"}
	var b []byte
	for n := rnd.Intn(12); n > 0; n-- {
		if rnd.Intn(5) == 0 {
			b = append(b, byte(rnd.Intn(256)))
		} else {
			b = append(b, alphabet[rnd.Intn(len(alphabet))]...)
		}
	}
	return string(b)
}

// randFloat draws finite floats around every formatting boundary.
func randFloat(rnd *rand.Rand) float64 {
	edges := []float64{0, math.Copysign(0, -1), 1, -1, 1e-6, 9.99999e-7, 1e-7, 1e20, 1e21,
		999999999999999999999, 5e-324, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125}
	switch rnd.Intn(4) {
	case 0:
		return edges[rnd.Intn(len(edges))]
	case 1:
		for {
			if f := math.Float64frombits(rnd.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2:
		return rnd.Float64() * math.Pow(10, float64(rnd.Intn(50)-25))
	}
	return float64(rnd.Intn(1000)) / 64
}

func randDecision(rnd *rand.Rand) Decision {
	pick := func(s string) string {
		if rnd.Intn(2) == 0 {
			return ""
		}
		return s
	}
	return Decision{
		Op:               []string{"add", "remove", "overload", ""}[rnd.Intn(4)],
		Task:             pick(randString(rnd)),
		Verdict:          Verdict(rnd.Intn(256)),
		Reason:           pick(randString(rnd)),
		AccurateOK:       rnd.Intn(2) == 0,
		AccurateUtil:     randFloat(rnd),
		AccurateGammaMin: randFloat(rnd),
		DeepestOK:        rnd.Intn(2) == 0,
		DeepestUtil:      randFloat(rnd),
		DeepestGammaMin:  randFloat(rnd),
		Replanned:        rnd.Intn(2) == 0,
		PlanRung:         pick(randString(rnd)),
	}
}

// TestDecisionAppendJSONMatchesMarshal: the append encoder is byte-for-byte
// json.Marshal over random decisions, strings and floats.
func TestDecisionAppendJSONMatchesMarshal(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	prefix := []byte("prefix:")
	for i := 0; i < 20000; i++ {
		d := randDecision(rnd)
		want, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.AppendJSON(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("decision %#v\n append: %s\n json:   %s", d, got, want)
		}
	}
	for _, s := range jsonStrings {
		want, _ := json.Marshal(s)
		if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("string %q: append %s, json %s", s, got, want)
		}
	}
}

// TestDecisionAppendJSONRejectsNonFinite: like json.Marshal, a NaN or an
// infinity is an error, and nothing is appended.
func TestDecisionAppendJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := Decision{Op: "add", DeepestGammaMin: f}
		if _, err := json.Marshal(d); err == nil {
			t.Fatalf("json.Marshal accepts %v", f)
		}
		got, err := d.AppendJSON([]byte("x"))
		if err == nil || string(got) != "x" {
			t.Errorf("%v: append %q, err %v; want an error and no bytes", f, got, err)
		}
	}
}

func BenchmarkEncodeDecisions(b *testing.B) {
	rnd := rand.New(rand.NewSource(3))
	decs := make([]Decision, 64)
	for i := range decs {
		decs[i] = Decision{
			Op: "add", Task: "w" + string(rune('a'+i%26)), Verdict: Rejected,
			Reason:       "deepest-imprecise profile fails Theorem 1: no guarantee would survive admission",
			AccurateUtil: 1 + rnd.Float64(), AccurateGammaMin: rnd.Float64(),
			DeepestUtil: 0.5 + rnd.Float64(), DeepestGammaMin: rnd.Float64(),
		}
	}
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for k := range decs {
				var err error
				if buf, err = decs[k].AppendJSON(buf); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("stdlib-indent", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(decs); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}
