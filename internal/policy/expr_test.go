package policy

import (
	"math"
	"strconv"
	"testing"
)

// parseFloatValue is the reference strValue must match: ParseFloat on
// every string.
func parseFloatValue(s string) value {
	if n, err := strconv.ParseFloat(s, 64); err == nil {
		return value{str: s, num: n, isNum: true}
	}
	return value{str: s}
}

func sameValue(a, b value) bool {
	return a.str == b.str && a.isNum == b.isNum && math.Float64bits(a.num) == math.Float64bits(b.num)
}

// TestStrValueMatchesParseFloat: skipping ParseFloat on strings that
// cannot start a number changes no value, on the strings ParseFloat
// treats specially and on every string of one or two bytes.
func TestStrValueMatchesParseFloat(t *testing.T) {
	check := func(s string) {
		t.Helper()
		if got, want := strValue(s), parseFloatValue(s); !sameValue(got, want) {
			t.Fatalf("strValue(%q) = %+v, ParseFloat gives %+v", s, got, want)
		}
	}
	for _, s := range []string{
		"inf", "-Inf", "+INF", "NaN", "nan", "infinity", "Infinity", "infinite",
		"0x1p4", "0X1P-2", "0x_1p0", "1_000", "1e400", "-1e400", "1e-400",
		".5", "5.", "-.5e1", "+", "-", ".", "", " 1", "1 ", "e5",
		"secmodule", "N/A", "i", "licensed", "007", "٣",
	} {
		check(s)
	}
	var b [2]byte
	for c := 0; c < 256; c++ {
		b[0] = byte(c)
		check(string(b[:1]))
		for d := 0; d < 256; d++ {
			b[1] = byte(d)
			check(string(b[:]))
		}
	}
}

var valueSink value

// TestStrValueAllocs: an attribute that cannot be a number, such as
// app_domain's "secmodule", costs no allocation to evaluate.
func TestStrValueAllocs(t *testing.T) {
	s := "secmodule"
	if n := testing.AllocsPerRun(100, func() { valueSink = strValue(s) }); n != 0 {
		t.Fatalf("strValue(%q): %v allocs, want 0", s, n)
	}
}
