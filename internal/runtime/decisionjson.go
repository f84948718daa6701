package runtime

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the decision's JSON object to dst. The bytes equal
// json.Marshal(d) exactly: the same field order, omitempty rules, number
// formatting and HTML-safe string escaping. The admit reply paths use it
// in place of encoding/json, so the wire format of a decision is decided
// here, next to the struct tags it mirrors. As with json.Marshal, a NaN
// or infinite float is an error (dst is then returned unchanged).
func (d *Decision) AppendJSON(dst []byte) ([]byte, error) {
	for _, f := range [...]float64{d.AccurateUtil, d.AccurateGammaMin, d.DeepestUtil, d.DeepestGammaMin} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, fmt.Errorf("runtime: decision %q: unsupported float %v", d.Task, f)
		}
	}
	b := append(dst, `{"op":`...)
	b = AppendJSONString(b, d.Op)
	if d.Task != "" {
		b = append(b, `,"task":`...)
		b = AppendJSONString(b, d.Task)
	}
	b = append(b, `,"verdict":`...)
	b = strconv.AppendUint(b, uint64(d.Verdict), 10)
	if d.Reason != "" {
		b = append(b, `,"reason":`...)
		b = AppendJSONString(b, d.Reason)
	}
	b = append(b, `,"accurate_ok":`...)
	b = strconv.AppendBool(b, d.AccurateOK)
	b = append(b, `,"accurate_util":`...)
	b = appendJSONFloat(b, d.AccurateUtil)
	b = append(b, `,"accurate_gamma_min":`...)
	b = appendJSONFloat(b, d.AccurateGammaMin)
	b = append(b, `,"deepest_ok":`...)
	b = strconv.AppendBool(b, d.DeepestOK)
	b = append(b, `,"deepest_util":`...)
	b = appendJSONFloat(b, d.DeepestUtil)
	b = append(b, `,"deepest_gamma_min":`...)
	b = appendJSONFloat(b, d.DeepestGammaMin)
	b = append(b, `,"replanned":`...)
	b = strconv.AppendBool(b, d.Replanned)
	if d.PlanRung != "" {
		b = append(b, `,"plan_rung":`...)
		b = AppendJSONString(b, d.PlanRung)
	}
	return append(b, '}'), nil
}

// appendJSONFloat formats a finite float64 the way encoding/json does:
// shortest round-trip digits, plain notation for 1e-6 <= |f| < 1e21 and
// exponent notation (without a zero-padded exponent) outside it.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// 1e-07 -> 1e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal with the escaping
// encoding/json applies by default: quote, backslash and control bytes
// escaped (\b \f \n \r \t by name, the rest as \u00XX), <, > and & as
// \u003c \u003e \u0026, U+2028 and U+2029 escaped, and each invalid UTF-8
// byte replaced by \ufffd.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
