package codegen

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"dsmdist/internal/xform"
)

// TestImageCodec: a real image survives EncodeImage/DecodeImage, the format
// is still the plain gob stream earlier .img files and compile-store entries
// hold, and truncated or foreign bytes are an error, not a panic.
func TestImageCodec(t *testing.T) {
	res := compileSrc(t, twoUnitSrc, xform.O3(), true)
	var buf bytes.Buffer
	if err := EncodeImage(&buf, res); err != nil {
		t.Fatalf("encode: %v", err)
	}
	enc := buf.Bytes()
	back, err := DecodeImage(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(back.Prog.Fns, res.Prog.Fns) || len(back.Arrays) != len(res.Arrays) ||
		!reflect.DeepEqual(back.Checks, res.Checks) {
		t.Fatal("decoded image differs from the encoded one")
	}

	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(res); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeImage(&old); err != nil {
		t.Fatalf("plain gob stream no longer loads: %v", err)
	}

	for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeImage(bytes.NewReader(enc[:cut])); err == nil {
			t.Errorf("image truncated to %d of %d bytes decoded without error", cut, len(enc))
		}
	}
	if _, err := DecodeImage(bytes.NewReader([]byte("not an image, just text\n"))); err == nil {
		t.Error("garbage decoded without error")
	}
}
