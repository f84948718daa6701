// Zero-allocation Event decoding for the /admit and /admit/batch hot paths.
//
// encoding/json cannot decode an Event without allocating: every string
// field, the nested TaskSpec, and the decoder's own state go through the
// heap. At ingest rates the decode alloc rate becomes GC pressure that
// competes with the engine. This file is a hand-rolled, pooled decoder
// for exactly the Event schema:
//
//   - the request body is read into a reused buffer,
//   - the Event/TaskSpec/OverloadSpec targets are scratch structs owned
//     by the decoder, one set per batch index (the admit handlers hand
//     them to the engine and only recycle the decoder after the engine's
//     reply),
//   - task/op names are interned in a bounded map — the no-alloc
//     map[string(bytes)] lookup makes repeated names free,
//   - numbers parse with an exact fast path (mantissa < 2^53, |exp10| ≤ 22
//     multiplies/divides by an exactly-representable power of ten, which
//     is correctly rounded); the rare hard cases fall back to
//     strconv.ParseFloat,
//   - the decoder also owns the reply buffer the handler encodes into.
//
// Steady state on the hot path (known names, no ExtraLevels): 0 allocs per
// event or batch, enforced by testing.AllocsPerRun in the package tests.
//
// Semantics follow encoding/json with DisallowUnknownFields: unknown
// fields are rejected, field names match case-insensitively (ASCII plus
// the two non-ASCII runes that fold to ASCII letters, U+212A and U+017F),
// null leaves the target unchanged (a null pointer or slice field becomes
// nil, a null batch is empty), duplicate keys take the last value and
// merge into an object or slice a previous duplicate filled. Beyond
// encoding/json, trailing data after the value is an error. It is
// stricter about number syntax only where JSON itself is (leading zeros,
// bare '.').
package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	runtimepkg "nprt/internal/runtime"
	"nprt/internal/task"
)

// maxInterned bounds the name-interning map so a hostile client cannot
// grow it without limit; past the cap, unseen names simply allocate.
const maxInterned = 4096

type eventDecoder struct {
	buf     []byte // request-body scratch, reused across requests
	data    []byte // the bytes being parsed
	pos     int
	scratch []byte // string-unescape scratch

	// Per-index scratch: evs[i] is the i-th decoded Event, and its Task
	// and Overload point at specs[i] and overs[i]. The slices grow to the
	// largest batch seen; a request that grows them mid-parse leaves its
	// earlier events pointing into the previous arrays, which stay valid
	// for as long as those events are referenced.
	evs   []runtimepkg.Event
	specs []runtimepkg.TaskSpec
	overs []runtimepkg.OverloadSpec

	reply []byte // reply-encoding scratch (ReplyBuf / WriteJSON)

	names map[string]string
}

var decoderPool = sync.Pool{New: func() any {
	d := &eventDecoder{names: make(map[string]string, 64)}
	// The op names every request carries.
	for _, s := range []string{"add", "remove", "overload"} {
		d.names[s] = s
	}
	return d
}}

func getDecoder() *eventDecoder  { return decoderPool.Get().(*eventDecoder) }
func putDecoder(d *eventDecoder) { decoderPool.Put(d) }

// Decoder is the pooled zero-allocation Event decoder, exported for the
// sharded router (internal/cluster), which shares the /admit hot path. Get
// a decoder per request, Decode or DecodeBatch, and Put it back only after
// the engine is done with the returned scratch events.
type Decoder = eventDecoder

// GetDecoder takes a pooled decoder.
func GetDecoder() *Decoder { return getDecoder() }

// PutDecoder recycles a decoder taken with GetDecoder.
func PutDecoder(d *Decoder) { putDecoder(d) }

// ErrBatchTooLarge is returned by DecodeBatch when the array holds more
// events than the caller's limit; decoding stops at the first excess one.
var ErrBatchTooLarge = errors.New("batch exceeds the event limit")

// Decode reads r to EOF and parses one Event. The returned slice is the
// decoder's scratch (always length 1): valid until the decoder is reused,
// so put the decoder back only after the engine is done with the event.
func (d *eventDecoder) Decode(r io.Reader) ([]runtimepkg.Event, error) {
	if err := d.readAll(r); err != nil {
		return nil, err
	}
	return d.decodeBytes(d.buf)
}

// DecodeBatch reads r to EOF and parses a JSON array of at most max
// Events (null is an empty batch). The returned slice is the decoder's
// scratch, with the same lifetime rule as Decode.
func (d *eventDecoder) DecodeBatch(r io.Reader, max int) ([]runtimepkg.Event, error) {
	if err := d.readAll(r); err != nil {
		return nil, err
	}
	return d.decodeBatchBytes(d.buf, max)
}

// decodeBytes parses one Event from b (which the decoder aliases — the
// caller must keep b alive and unchanged as long as the Event is in use).
func (d *eventDecoder) decodeBytes(b []byte) ([]runtimepkg.Event, error) {
	d.data, d.pos = b, 0
	evs := d.slot(d.evs[:0])
	if !d.tryNull() {
		if err := d.parseEvent(&evs[0], &d.specs[0], &d.overs[0]); err != nil {
			return nil, err
		}
	}
	return d.finish(evs, "event")
}

// decodeBatchBytes parses an Event array from b, aliased as in decodeBytes.
func (d *eventDecoder) decodeBatchBytes(b []byte, max int) ([]runtimepkg.Event, error) {
	d.data, d.pos = b, 0
	evs := d.evs[:0]
	if d.tryNull() {
		return d.finish(evs, "batch")
	}
	if err := d.expect('['); err != nil {
		return nil, err
	}
	if d.peek(']') {
		return d.finish(evs, "batch")
	}
	for {
		if len(evs) == max {
			return nil, fmt.Errorf("%w of %d", ErrBatchTooLarge, max)
		}
		evs = d.slot(evs)
		i := len(evs) - 1
		if !d.tryNull() {
			if err := d.parseEvent(&evs[i], &d.specs[i], &d.overs[i]); err != nil {
				return nil, err
			}
		}
		if d.peek(']') {
			return d.finish(evs, "batch")
		}
		if err := d.expect(','); err != nil {
			return nil, d.syntaxErr("expected ',' or ']' in events array")
		}
	}
}

// slot appends one zeroed Event to evs, growing the per-index scratch so
// that specs and overs cover the new index.
func (d *eventDecoder) slot(evs []runtimepkg.Event) []runtimepkg.Event {
	evs = append(evs, runtimepkg.Event{})
	d.evs = evs
	if n := len(evs); len(d.specs) < n {
		d.specs = append(d.specs, runtimepkg.TaskSpec{})
		d.overs = append(d.overs, runtimepkg.OverloadSpec{})
	}
	return evs
}

// finish rejects anything but whitespace after the parsed value.
func (d *eventDecoder) finish(evs []runtimepkg.Event, what string) ([]runtimepkg.Event, error) {
	d.skipWS()
	if d.pos != len(d.data) {
		return nil, d.syntaxErr("trailing data after %s", what)
	}
	return evs, nil
}

// ReplyBuf returns the decoder's reply buffer, emptied. The handler
// appends its response body to it and passes the result to WriteJSON,
// which keeps the grown buffer for the next request on this decoder.
func (d *eventDecoder) ReplyBuf() []byte { return d.reply[:0] }

// WriteJSON writes body (built on ReplyBuf) as a JSON response.
func (d *eventDecoder) WriteJSON(w http.ResponseWriter, status int, body []byte) {
	d.reply = body
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// readAll slurps r into the reused body buffer.
func (d *eventDecoder) readAll(r io.Reader) error {
	if cap(d.buf) == 0 {
		d.buf = make([]byte, 0, 4096)
	}
	d.buf = d.buf[:0]
	for {
		if len(d.buf) == cap(d.buf) {
			nb := make([]byte, len(d.buf), 2*cap(d.buf))
			copy(nb, d.buf)
			d.buf = nb
		}
		n, err := r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func (d *eventDecoder) syntaxErr(format string, args ...any) error {
	return fmt.Errorf("json offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *eventDecoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

func (d *eventDecoder) expect(c byte) error {
	d.skipWS()
	if d.pos >= len(d.data) || d.data[d.pos] != c {
		return d.syntaxErr("expected %q", string(c))
	}
	d.pos++
	return nil
}

// peek reports whether the next non-WS byte is c, consuming it if so.
func (d *eventDecoder) peek(c byte) bool {
	d.skipWS()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// tryNull consumes a JSON null if present.
func (d *eventDecoder) tryNull() bool {
	d.skipWS()
	if d.pos+4 <= len(d.data) && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// parseString returns the string's bytes — a slice into the input when no
// escapes are present, the unescape scratch otherwise. Valid only until
// the next parseString call; intern or convert immediately.
func (d *eventDecoder) parseString() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.pos
	for i := d.pos; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			s := d.data[start:i]
			d.pos = i + 1
			if !utf8.Valid(s) {
				d.scratch = appendCoerced(d.scratch[:0], s)
				return d.scratch, nil
			}
			return s, nil
		}
		if c == '\\' || c < 0x20 {
			return d.parseStringSlow(start)
		}
	}
	d.pos = len(d.data)
	return nil, d.syntaxErr("unterminated string")
}

// parseStringSlow handles escapes, coercing invalid sequences to U+FFFD
// exactly like encoding/json.
func (d *eventDecoder) parseStringSlow(start int) ([]byte, error) {
	d.scratch = d.scratch[:0]
	i := start
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			if !utf8.Valid(d.scratch) {
				// Raw invalid UTF-8 mixed with escapes: coerce in place.
				coerced := appendCoerced(nil, d.scratch)
				d.scratch = append(d.scratch[:0], coerced...)
			}
			return d.scratch, nil
		case c == '\\':
			if i+1 >= len(d.data) {
				d.pos = len(d.data)
				return nil, d.syntaxErr("unterminated escape")
			}
			e := d.data[i+1]
			i += 2
			switch e {
			case '"', '\\', '/':
				d.scratch = append(d.scratch, e)
			case 'b':
				d.scratch = append(d.scratch, '\b')
			case 'f':
				d.scratch = append(d.scratch, '\f')
			case 'n':
				d.scratch = append(d.scratch, '\n')
			case 'r':
				d.scratch = append(d.scratch, '\r')
			case 't':
				d.scratch = append(d.scratch, '\t')
			case 'u':
				r1, ok := d.hex4(i)
				if !ok {
					d.pos = i
					return nil, d.syntaxErr("invalid \\u escape")
				}
				i += 4
				r := rune(r1)
				if utf16.IsSurrogate(r) {
					// Try to pair it; unpaired surrogates become U+FFFD.
					if i+6 <= len(d.data) && d.data[i] == '\\' && d.data[i+1] == 'u' {
						if r2, ok := d.hex4(i + 2); ok {
							if paired := utf16.DecodeRune(r, rune(r2)); paired != utf8.RuneError {
								r = paired
								i += 6
							} else {
								r = utf8.RuneError
							}
						} else {
							r = utf8.RuneError
						}
					} else {
						r = utf8.RuneError
					}
				}
				d.scratch = utf8.AppendRune(d.scratch, r)
			default:
				d.pos = i
				return nil, d.syntaxErr("invalid escape \\%s", string(e))
			}
		case c < 0x20:
			d.pos = i
			return nil, d.syntaxErr("control character in string")
		default:
			d.scratch = append(d.scratch, c)
			i++
		}
	}
	d.pos = len(d.data)
	return nil, d.syntaxErr("unterminated string")
}

// hex4 parses 4 hex digits at offset i.
func (d *eventDecoder) hex4(i int) (uint16, bool) {
	if i+4 > len(d.data) {
		return 0, false
	}
	var v uint16
	for _, c := range d.data[i : i+4] {
		v <<= 4
		switch {
		case c >= '0' && c <= '9':
			v |= uint16(c - '0')
		case c >= 'a' && c <= 'f':
			v |= uint16(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v |= uint16(c-'A') + 10
		default:
			return 0, false
		}
	}
	return v, true
}

// appendCoerced copies src to dst replacing invalid UTF-8 with U+FFFD.
func appendCoerced(dst, src []byte) []byte {
	for len(src) > 0 {
		r, size := utf8.DecodeRune(src)
		if r == utf8.RuneError && size == 1 {
			dst = utf8.AppendRune(dst, utf8.RuneError)
		} else {
			dst = append(dst, src[:size]...)
		}
		src = src[size:]
	}
	return dst
}

// intern returns b as a string, reusing a previously-built string when the
// same bytes were seen before (the map[string(b)] lookup does not allocate).
func (d *eventDecoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.names) < maxInterned {
		d.names[s] = s
	}
	return s
}

// scanNumber consumes one JSON number token and validates its grammar.
func (d *eventDecoder) scanNumber() ([]byte, error) {
	d.skipWS()
	start := d.pos
	i := d.pos
	n := len(d.data)
	if i < n && d.data[i] == '-' {
		i++
	}
	// Integer part: 0 | [1-9][0-9]*
	switch {
	case i < n && d.data[i] == '0':
		i++
	case i < n && d.data[i] >= '1' && d.data[i] <= '9':
		for i < n && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
	default:
		d.pos = i
		return nil, d.syntaxErr("invalid number")
	}
	if i < n && d.data[i] == '.' {
		i++
		if i >= n || d.data[i] < '0' || d.data[i] > '9' {
			d.pos = i
			return nil, d.syntaxErr("digit required after decimal point")
		}
		for i < n && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if i >= n || d.data[i] < '0' || d.data[i] > '9' {
			d.pos = i
			return nil, d.syntaxErr("digit required in exponent")
		}
		for i < n && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
	}
	d.pos = i
	return d.data[start:i], nil
}

// parseInt parses an integer-valued number into int64 (what encoding/json
// allows for an int64 target: no fraction, no exponent).
func (d *eventDecoder) parseInt() (int64, error) {
	tok, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	neg := false
	i := 0
	if tok[0] == '-' {
		neg = true
		i = 1
	}
	var v uint64
	for ; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return 0, d.syntaxErr("number %s is not an integer", tok)
		}
		if v > (1<<63-1-9)/10+1 { // loose pre-check; exact check below
			return 0, d.syntaxErr("integer %s overflows int64", tok)
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		if v > 1<<63 {
			return 0, d.syntaxErr("integer %s overflows int64", tok)
		}
		return -int64(v), nil
	}
	if v > 1<<63-1 {
		return 0, d.syntaxErr("integer %s overflows int64", tok)
	}
	return int64(v), nil
}

func (d *eventDecoder) parseUint64() (uint64, error) {
	tok, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return 0, d.syntaxErr("number %s is not an unsigned integer", tok)
		}
		const cutoff = (1<<64 - 1) / 10
		if v > cutoff || (v == cutoff && c > '5') {
			return 0, d.syntaxErr("integer %s overflows uint64", tok)
		}
		v = v*10 + uint64(c-'0')
	}
	return v, nil
}

// pow10 holds the exactly-representable powers of ten (10^0 … 10^22).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloat parses a JSON number, allocation-free for the common cases.
func (d *eventDecoder) parseFloat() (float64, error) {
	tok, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	if f, ok := fastFloat(tok); ok {
		return f, nil
	}
	f, err := strconv.ParseFloat(string(tok), 64) // rare slow path: allocates
	if err != nil {
		return 0, d.syntaxErr("number %s: %v", tok, err)
	}
	return f, nil
}

// fastFloat is the Clinger fast path: when the decimal mantissa fits in
// 2^53 and the net exponent is within ±22, one float multiply/divide by an
// exact power of ten is correctly rounded. ok=false sends the caller to
// strconv.
func fastFloat(tok []byte) (float64, bool) {
	i := 0
	neg := false
	if i < len(tok) && tok[i] == '-' {
		neg = true
		i++
	}
	var mant uint64
	exp := 0
	for ; i < len(tok) && tok[i] >= '0' && tok[i] <= '9'; i++ {
		if mant > (1<<53-1-9)/10 {
			return 0, false // mantissa would lose precision
		}
		mant = mant*10 + uint64(tok[i]-'0')
	}
	if i < len(tok) && tok[i] == '.' {
		i++
		for ; i < len(tok) && tok[i] >= '0' && tok[i] <= '9'; i++ {
			if mant > (1<<53-1-9)/10 {
				return 0, false
			}
			mant = mant*10 + uint64(tok[i]-'0')
			exp--
		}
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		eneg := false
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			eneg = tok[i] == '-'
			i++
		}
		e := 0
		for ; i < len(tok) && tok[i] >= '0' && tok[i] <= '9'; i++ {
			e = e*10 + int(tok[i]-'0')
			if e > 400 {
				return 0, false
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i != len(tok) {
		return 0, false
	}
	var f float64
	switch {
	case mant == 0:
		f = 0
	case exp >= 0 && exp < len(pow10):
		f = float64(mant) * pow10[exp]
	case exp < 0 && -exp < len(pow10):
		f = float64(mant) / pow10[-exp]
	default:
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}

// objectKeys drives a `{ "key": value, ... }` loop: it returns the next
// key (nil when the object ends) and positions the parser after the colon.
func (d *eventDecoder) objectKeys(first *bool) ([]byte, error) {
	if *first {
		*first = false
		if err := d.expect('{'); err != nil {
			return nil, err
		}
		if d.peek('}') {
			return nil, nil
		}
	} else {
		if d.peek('}') {
			return nil, nil
		}
		if err := d.expect(','); err != nil {
			return nil, d.syntaxErr("expected ',' or '}' in object")
		}
	}
	key, err := d.parseString()
	if err != nil {
		return nil, err
	}
	if err := d.expect(':'); err != nil {
		return nil, err
	}
	return key, nil
}

// foldEq reports whether the key b names the letters-only field s under
// the case folding encoding/json applies to untagged fields: ASCII
// letters match either case, and so do the two non-ASCII runes whose
// simple fold orbit holds an ASCII letter — U+212A KELVIN SIGN (k) and
// U+017F LATIN SMALL LETTER LONG S (s).
func foldEq(b []byte, s string) bool {
	j := 0
	for i := 0; i < len(b); j++ {
		if j == len(s) {
			return false
		}
		want := s[j] | 0x20
		if c := b[i]; c < utf8.RuneSelf {
			if c|0x20 != want {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if !(r == '\u212a' && want == 'k' || r == '\u017f' && want == 's') {
			return false
		}
		i += size
	}
	return j == len(s)
}

// parseEvent fills ev from one JSON object. A "task" or "overload" object
// decodes into spec or over: into the value already there when an earlier
// duplicate key set the pointer, into a zeroed one otherwise.
func (d *eventDecoder) parseEvent(ev *runtimepkg.Event, spec *runtimepkg.TaskSpec, over *runtimepkg.OverloadSpec) error {
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		switch {
		case foldEq(key, "epoch"):
			if d.tryNull() {
				break
			}
			if ev.Epoch, err = d.parseInt(); err != nil {
				return err
			}
		case foldEq(key, "op"):
			if d.tryNull() {
				break
			}
			b, err := d.parseString()
			if err != nil {
				return err
			}
			ev.Op = d.intern(b)
		case foldEq(key, "task"):
			if d.tryNull() {
				ev.Task = nil
				break
			}
			if ev.Task == nil {
				*spec = runtimepkg.TaskSpec{}
				ev.Task = spec
			}
			if err := d.parseTaskSpec(ev.Task); err != nil {
				return err
			}
		case foldEq(key, "name"):
			if d.tryNull() {
				break
			}
			b, err := d.parseString()
			if err != nil {
				return err
			}
			ev.Name = d.intern(b)
		case foldEq(key, "overload"):
			if d.tryNull() {
				ev.Overload = nil
				break
			}
			if ev.Overload == nil {
				*over = runtimepkg.OverloadSpec{}
				ev.Overload = over
			}
			if err := d.parseOverload(ev.Overload); err != nil {
				return err
			}
		case foldEq(key, "seq"):
			if d.tryNull() {
				break
			}
			if ev.Seq, err = d.parseUint64(); err != nil {
				return err
			}
		default:
			return d.syntaxErr("unknown field %q in event", key)
		}
	}
}

func (d *eventDecoder) parseTaskSpec(spec *runtimepkg.TaskSpec) error {
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		switch {
		case foldEq(key, "task"):
			if d.tryNull() {
				break
			}
			if err := d.parseTask(&spec.Task); err != nil {
				return err
			}
		case foldEq(key, "criticality"):
			if d.tryNull() {
				break
			}
			v, err := d.parseInt()
			if err != nil {
				return err
			}
			spec.Criticality = int(v)
		default:
			return d.syntaxErr("unknown field %q in task spec", key)
		}
	}
}

// Field indices of task.Task for parseTask's key match.
const (
	fID = iota
	fName
	fPeriod
	fRelease
	fWCETAccurate
	fWCETImprecise
	fExecAccurate
	fExecImprecise
	fError
	fMaxConsecutiveImprecise
	fExtraLevels
)

var taskFields = [...]string{
	fID: "id", fName: "name", fPeriod: "period", fRelease: "release",
	fWCETAccurate: "wcetaccurate", fWCETImprecise: "wcetimprecise",
	fExecAccurate: "execaccurate", fExecImprecise: "execimprecise", fError: "error",
	fMaxConsecutiveImprecise: "maxconsecutiveimprecise", fExtraLevels: "extralevels",
}

// matchKey returns the index of the field in names that key matches, or -1.
func matchKey(key []byte, names []string) int {
	for i, n := range names {
		if foldEq(key, n) {
			return i
		}
	}
	return -1
}

func (d *eventDecoder) parseTask(tt *task.Task) error {
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		f := matchKey(key, taskFields[:])
		if f < 0 {
			return d.syntaxErr("unknown field %q in task", key)
		}
		if d.tryNull() {
			if f == fExtraLevels {
				tt.ExtraLevels = nil
			}
			continue
		}
		switch f {
		case fID:
			v, err := d.parseInt()
			if err != nil {
				return err
			}
			tt.ID = int(v)
		case fName:
			b, err := d.parseString()
			if err != nil {
				return err
			}
			tt.Name = d.intern(b)
		case fPeriod:
			tt.Period, err = d.parseTime()
		case fRelease:
			tt.Release, err = d.parseTime()
		case fWCETAccurate:
			tt.WCETAccurate, err = d.parseTime()
		case fWCETImprecise:
			tt.WCETImprecise, err = d.parseTime()
		case fExecAccurate:
			err = d.parseDist(&tt.ExecAccurate)
		case fExecImprecise:
			err = d.parseDist(&tt.ExecImprecise)
		case fError:
			err = d.parseDist(&tt.Error)
		case fMaxConsecutiveImprecise:
			v, perr := d.parseInt()
			tt.MaxConsecutiveImprecise, err = int(v), perr
		case fExtraLevels:
			err = d.parseExtraLevels(tt)
		}
		if err != nil {
			return err
		}
	}
}

func (d *eventDecoder) parseTime() (task.Time, error) {
	v, err := d.parseInt()
	return task.Time(v), err
}

var distFields = [...]string{"mean", "sigma", "min", "max"}

func (d *eventDecoder) parseDist(dist *task.Dist) error {
	targets := [...]*float64{&dist.Mean, &dist.Sigma, &dist.Min, &dist.Max}
	return d.parseFloats("dist", distFields[:], targets[:])
}

// parseFloats parses an object whose fields are all float64: names[i]
// decodes into *targets[i].
func (d *eventDecoder) parseFloats(what string, names []string, targets []*float64) error {
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		f := matchKey(key, names)
		if f < 0 {
			return d.syntaxErr("unknown field %q in %s", key, what)
		}
		if d.tryNull() {
			continue
		}
		if *targets[f], err = d.parseFloat(); err != nil {
			return err
		}
	}
}

// parseExtraLevels decodes the levels array the way encoding/json decodes
// into an existing slice: element i merges into tt.ExtraLevels[i] while
// it exists (a duplicate key refines the earlier array), the slice grows
// by append, and an empty array leaves an empty non-nil slice. The
// runtime retains the task it admits, so the slice must never alias
// pooled decoder memory; it starts nil on every fresh TaskSpec, so events
// with extra levels allocate — they are off the zero-alloc hot path by
// design.
func (d *eventDecoder) parseExtraLevels(tt *task.Task) error {
	if err := d.expect('['); err != nil {
		return err
	}
	lv := tt.ExtraLevels
	i := 0
	if !d.peek(']') {
		for {
			switch {
			case i == cap(lv):
				lv = append(lv, task.Level{})
			case i >= len(lv):
				lv = lv[:i+1]
			}
			if !d.tryNull() {
				if err := d.parseLevel(&lv[i]); err != nil {
					return err
				}
			}
			i++
			if d.peek(']') {
				break
			}
			if err := d.expect(','); err != nil {
				return d.syntaxErr("expected ',' or ']' in levels array")
			}
		}
	}
	if i == 0 {
		tt.ExtraLevels = []task.Level{}
		return nil
	}
	tt.ExtraLevels = lv[:i]
	return nil
}

var levelFields = [...]string{"wcet", "exec", "error"}

func (d *eventDecoder) parseLevel(lv *task.Level) error {
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		f := matchKey(key, levelFields[:])
		if f < 0 {
			return d.syntaxErr("unknown field %q in level", key)
		}
		if d.tryNull() {
			continue
		}
		switch f {
		case 0:
			lv.WCET, err = d.parseTime()
		case 1:
			err = d.parseDist(&lv.Exec)
		case 2:
			err = d.parseDist(&lv.Error)
		}
		if err != nil {
			return err
		}
	}
}

func (d *eventDecoder) parseOverload(ov *runtimepkg.OverloadSpec) error {
	first := true
	for {
		key, err := d.objectKeys(&first)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		var f int
		switch {
		case foldEq(key, "rates"):
			f = 0
		case foldEq(key, "epochs"):
			f = 1
		default:
			return d.syntaxErr("unknown field %q in overload", key)
		}
		if d.tryNull() {
			continue
		}
		if f == 0 {
			err = d.parseFaultRates(ov)
		} else {
			var v int64
			v, err = d.parseInt()
			ov.Epochs = int(v)
		}
		if err != nil {
			return err
		}
	}
}

var rateFields = [...]string{"overrunprob", "overrunfactor", "abortprob", "abortpoint", "dropprob"}

func (d *eventDecoder) parseFaultRates(ov *runtimepkg.OverloadSpec) error {
	r := &ov.Rates
	targets := [...]*float64{&r.OverrunProb, &r.OverrunFactor, &r.AbortProb, &r.AbortPoint, &r.DropProb}
	return d.parseFloats("fault rates", rateFields[:], targets[:])
}
