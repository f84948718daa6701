package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode"

	runtimepkg "nprt/internal/runtime"
)

// refDecodeBatch is the reference semantics of /admit/batch: encoding/json
// into []Event with DisallowUnknownFields, plus the two rules the pooled
// decoder adds — nothing but whitespace may follow the array, and more
// than max events is an error.
func refDecodeBatch(b []byte, max int) ([]runtimepkg.Event, error) {
	var evs []runtimepkg.Event
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&evs); err != nil {
		return nil, err
	}
	if rest := bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("trailing data")
	}
	if len(evs) > max {
		return nil, ErrBatchTooLarge
	}
	return append([]runtimepkg.Event{}, evs...), nil
}

// handDecodeBatch runs the pooled batch decoder and deep-copies the events
// out of the decoder's scratch before recycling it.
func handDecodeBatch(b []byte, max int) ([]runtimepkg.Event, error) {
	d := getDecoder()
	defer putDecoder(d)
	evs, err := d.decodeBatchBytes(b, max)
	if err != nil {
		return nil, err
	}
	out := append([]runtimepkg.Event{}, evs...)
	for i := range out {
		if out[i].Task != nil {
			spec := *out[i].Task
			out[i].Task = &spec
		}
		if out[i].Overload != nil {
			over := *out[i].Overload
			out[i].Overload = &over
		}
	}
	return out, nil
}

// compareBatch reports how the two decoders disagree on src, or "".
func compareBatch(src []byte, max int) string {
	ref, refErr := refDecodeBatch(src, max)
	got, gotErr := handDecodeBatch(src, max)
	switch {
	case (refErr == nil) != (gotErr == nil):
		return fmt.Sprintf("error mismatch: encoding/json %v, pooled %v", refErr, gotErr)
	case refErr == nil && !reflect.DeepEqual(got, ref):
		return fmt.Sprintf("decoded events differ\n pooled: %#v\n ref:    %#v", got, ref)
	}
	return ""
}

// batchCases covers the shapes the batch door must treat exactly like
// encoding/json: empty, null, null elements, unknown fields, duplicate
// keys that merge, case folding, over-limit and trailing data.
var batchCases = []string{
	`[]`,
	` [ ] `,
	`null`,
	" null\n",
	`[null]`,
	`[null, {"op": "remove", "name": "w1"}, null]`,
	`[{}, {}]`,
	`[{"OP": "add", "TASK": {"Criticality": 2, "task": {"NAME": "x", "Period": 40}}}]`,
	// Folding: U+212A KELVIN SIGN matches k, U+017F LONG S matches s.
	"[{\"ta\u017f\u212a\": {\"task\": {\"name\": \"kelvin\"}}, \"\u017feq\": 4}]",
	"[{\"op\u212a\": 1}]",
	// A null value does not excuse an unknown key.
	`[{"typo": null}]`,
	`[{"task": {"task": {"typo": null}}}]`,
	`[{"task": {"task": {"ExecAccurate": {"typo": null}}}}]`,
	`[{"overload": {"rates": {"typo": null}}}]`,
	`[{"overload": {"typo": null}}]`,
	`[{"task": {"task": {"ExtraLevels": [{"typo": null}]}}}]`,
	// Duplicates: objects merge, a null pointer drops what came before.
	`[{"task": {"task": {"name": "a", "Period": 10}}, "task": {"task": {"WCETAccurate": 3}}}]`,
	`[{"task": {"task": {"name": "a", "Period": 10}}, "task": null, "task": {"task": {"WCETAccurate": 3}}}]`,
	`[{"overload": {"epochs": 2}, "overload": null, "overload": {"rates": {"DropProb": 0.5}}}]`,
	`[{"overload": {"epochs": 2}, "overload": {"rates": {"DropProb": 0.5}}}]`,
	// ExtraLevels: null elements, merging duplicates, shrink then regrow.
	`[{"task": {"task": {"ExtraLevels": [null, {"WCET": 2}]}}}]`,
	`[{"task": {"task": {"ExtraLevels": [{"WCET": 5, "Exec": {"Mean": 1}}], "ExtraLevels": [{"WCET": 3}]}}}]`,
	`[{"task": {"task": {"ExtraLevels": [{"WCET": 1}, {"WCET": 2}, {"WCET": 3}], "ExtraLevels": [{"WCET": 4}], "ExtraLevels": [null, null, null]}}}]`,
	`[{"task": {"task": {"ExtraLevels": [{"WCET": 1}], "ExtraLevels": []}}}]`,
	`[{"task": {"task": {"ExtraLevels": [{"WCET": 1}], "ExtraLevels": null}}}]`,
	// Over the limit (max 4 in the tests) and exactly at it.
	`[{}, {}, {}, {}]`,
	`[{}, {}, {}, {}, {}]`,
	`[null, null, null, null, null]`,
	// Trailing data and malformed arrays.
	`[] x`,
	`[]]`,
	`[{}] {}`,
	`null null`,
	`[{},]`,
	`[,]`,
	`[{} {}]`,
	`[`,
	`{"op": "add"}`,
	`"events"`,
	``,
	`[1]`,
	`[[]]`,
	`[{"epoch": "1"}]`,
	`[{"seq": -1}]`,
	`[{"seq": -0}]`,
	`[{"epoch": -0}]`,
	`[nul]`,
	`[nullx]`,
}

func TestDecodeBatchMatchesEncodingJSON(t *testing.T) {
	for _, src := range batchCases {
		if msg := compareBatch([]byte(src), 4); msg != "" {
			t.Errorf("case %q: %s", src, msg)
		}
	}
	// Every corpus event, marshaled as one array.
	buf, err := json.Marshal(decodeCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if msg := compareBatch(buf, 256); msg != "" {
		t.Errorf("corpus batch: %s", msg)
	}
}

// TestDecodeBatchStopsAtLimit: the decoder stops at the first event past
// the limit instead of parsing the rest of the body.
func TestDecodeBatchStopsAtLimit(t *testing.T) {
	src := `[{"op": "remove", "name": "a"}, {"op": "remove", "name": "b"}, not even json`
	d := getDecoder()
	defer putDecoder(d)
	_, err := d.decodeBatchBytes([]byte(src), 2)
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err %v, want ErrBatchTooLarge", err)
	}
}

// TestDecodeBatchScratchReuse: a decoder reused across batches of
// different sizes and shapes never leaks one request's fields into the
// next.
func TestDecodeBatchScratchReuse(t *testing.T) {
	d := getDecoder()
	defer putDecoder(d)
	seq := []string{
		`[{"op": "add", "task": {"criticality": 3, "task": {"name": "a", "Period": 40, "ExtraLevels": [{"WCET": 2}]}}},
		  {"op": "overload", "overload": {"rates": {"DropProb": 0.25}, "epochs": 3}}]`,
		`[{"op": "add", "task": {"task": {"name": "b"}}}, {"op": "overload", "overload": {}}, {"op": "remove", "name": "c"}]`,
		`[{"op": "add", "task": {}}]`,
	}
	for _, src := range seq {
		evs, err := d.decodeBatchBytes([]byte(src), 8)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refDecodeBatch([]byte(src), 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(append([]runtimepkg.Event{}, evs...), ref) {
			t.Fatalf("reused decoder diverges on %s\n pooled: %#v\n ref:    %#v", src, evs, ref)
		}
	}
}

// TestFoldEqMatchesEncodingJSON: foldEq accepts a non-ASCII rune exactly
// when encoding/json's folding maps it onto the ASCII letter — the only
// such runes are U+212A and U+017F.
func TestFoldEqMatchesEncodingJSON(t *testing.T) {
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		for c := 'a'; c <= 'z'; c++ {
			folds := false
			for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
				if f == c {
					folds = true
				}
			}
			if got := foldEq([]byte(string(r)), string(c)); got != folds {
				t.Fatalf("foldEq(%U, %q) = %v, fold orbit says %v", r, c, got, folds)
			}
		}
	}
	if !foldEq([]byte("WCETaccurate"), "wcetaccurate") || foldEq([]byte("wcetaccurat"), "wcetaccurate") ||
		foldEq([]byte("wcetaccuratee"), "wcetaccurate") {
		t.Error("ASCII folding broken")
	}
}

func FuzzDecodeBatch(f *testing.F) {
	for _, src := range batchCases {
		f.Add([]byte(src))
	}
	for _, src := range []string{
		string(batchJSONBytes(3)),
		`[` + string(hotEvent("w1")) + `,` + string(hotEvent("w2")) + `]`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if msg := compareBatch(src, 4); msg != "" {
			t.Fatalf("input %q: %s", src, msg)
		}
	})
}

// batchJSONBytes is an n-event steady-state /admit/batch body.
func batchJSONBytes(n int) []byte {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = string(hotEvent(fmt.Sprintf("w%d", i)))
	}
	return []byte("[" + strings.Join(parts, ",") + "]")
}

// TestDecodeBatchZeroAlloc: a 64-event steady-state batch decodes with
// zero allocations once names are interned and the scratch has grown.
func TestDecodeBatchZeroAlloc(t *testing.T) {
	d := getDecoder()
	defer putDecoder(d)
	payload := batchJSONBytes(64)
	if _, err := d.decodeBatchBytes(payload, 256); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		evs, err := d.decodeBatchBytes(payload, 256)
		if err != nil || len(evs) != 64 {
			t.Fatal(len(evs), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state 64-event batch allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	payload := batchJSONBytes(64)
	b.Run("pooled", func(b *testing.B) {
		d := getDecoder()
		defer putDecoder(d)
		if _, err := d.decodeBatchBytes(payload, 256); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.decodeBatchBytes(payload, 256); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			var evs []runtimepkg.Event
			dec := json.NewDecoder(bytes.NewReader(payload))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&evs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
