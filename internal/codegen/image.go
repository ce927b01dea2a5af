package codegen

import (
	"encoding/gob"
	"io"
)

// EncodeImage writes a linked image in the format .img files and the dsmd
// compile store hold: the gob stream of the Result. Every writer and reader
// of an image goes through this pair, so the format can change in one place.
func EncodeImage(w io.Writer, res *Result) error {
	return gob.NewEncoder(w).Encode(res)
}

// DecodeImage reads an image written by EncodeImage. Truncated or foreign
// bytes are an error.
func DecodeImage(r io.Reader) (*Result, error) {
	res := &Result{}
	if err := gob.NewDecoder(r).Decode(res); err != nil {
		return nil, err
	}
	return res, nil
}
