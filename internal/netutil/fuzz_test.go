package netutil

import "testing"

// FuzzParseAddrBytes is the differential target behind ParseAddrBytes's
// promise: whatever the bytes, it accepts exactly what ParseAddr accepts,
// with the same address, and rejects exactly what ParseAddr rejects. The
// CLF fast path parses with the one and the strict fallback with the
// other, so a disagreement would cluster a client differently depending
// on which path read its line.
func FuzzParseAddrBytes(f *testing.F) {
	for _, s := range []string{
		"0.0.0.0", "255.255.255.255", "12.34.56.78",
		"01.02.03.04", "001.002.003.004", "000.0.00.255", // leading zeros
		"0001.2.3.4", "1.2.3.0004", "1234.1.1.1", // 4-digit octets
		"+1.2.3.4", "1.-2.3.4", "1.2.3.+4", " 1.2.3.4", "1.2.3.4 ", // signs, spaces
		"", ".", "...", "1..3.4", ".2.3.4", "1.2.3.", "1.2.3", // empty components
		"1.2.3.4.", "1.2.3.4..", "1.2.3.4.5", // trailing dots
		"1.2.3.4\x00", "\x00.2.3.4", "1.2\x00.3.4", // NUL
		"256.1.1.1", "1.1.1.256", "999.999.999.999", "1.2.3.4\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		want, err := ParseAddr(string(in))
		got, ok := ParseAddrBytes(in)
		if ok != (err == nil) {
			t.Fatalf("%q: ParseAddrBytes ok=%v, ParseAddr err=%v", in, ok, err)
		}
		if ok && got != want {
			t.Fatalf("%q: ParseAddrBytes %v, ParseAddr %v", in, got, want)
		}
	})
}
