package spillfile

import (
	"bytes"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	for _, f := range [][3]int{{0, 0, 0}, {8, 3, 6}, {1 << 40, 1, 1<<31 - 1}} {
		hdr := EncodeHeader(f[0], f[1], f[2])
		if !HasMagic(hdr[:]) {
			t.Fatalf("EncodeHeader%v lacks the magic", f)
		}
		a, b, c := DecodeHeader(hdr[:])
		if [3]int{a, b, c} != f {
			t.Fatalf("DecodeHeader(EncodeHeader%v) = %v", f, [3]int{a, b, c})
		}
		if !bytes.Equal(hdr[:8], Magic[:]) {
			t.Fatalf("header starts %q, want the magic", hdr[:8])
		}
	}
}

// TestDecodeHeaderNegativeFields pins that DecodeHeader does not
// validate: a uint64 field past MaxInt64 decodes negative, which is why
// every reader bounds the fields against its payload itself.
func TestDecodeHeaderNegativeFields(t *testing.T) {
	hdr := EncodeHeader(8, 10, -9)
	if _, b, c := DecodeHeader(hdr[:]); b != 10 || c != -9 {
		t.Fatalf("DecodeHeader = _, %d, %d, want 10, -9", b, c)
	}
}

func TestHasMagicRejectsShortAndForeignBuffers(t *testing.T) {
	hdr := EncodeHeader(1, 2, 3)
	cases := map[string][]byte{
		"nil":           nil,
		"magic only":    Magic[:],
		"one byte shy":  hdr[:HeaderBytes-1],
		"foreign":       []byte("PK\x03\x04 a zip file, say, of some length"),
		"older version": append([]byte("PLISPL0\x00"), hdr[8:]...),
	}
	for name, buf := range cases {
		if HasMagic(buf) {
			t.Errorf("HasMagic(%s) = true", name)
		}
	}
	if !HasMagic(hdr[:]) {
		t.Error("HasMagic rejects a well-formed header")
	}
}

func TestInt32ViewsRoundTrip(t *testing.T) {
	s := []int32{0, -1, 1 << 30, 7}
	b := Int32Bytes(s)
	if len(b) != 4*len(s) {
		t.Fatalf("Int32Bytes length %d, want %d", len(b), 4*len(s))
	}
	got := BytesInt32(b)
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("BytesInt32(Int32Bytes(s))[%d] = %d, want %d", i, got[i], s[i])
		}
	}
	if Int32Bytes(nil) != nil || len(BytesInt32(nil)) != 0 {
		t.Error("empty views should be empty")
	}
}
