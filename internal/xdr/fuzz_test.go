package xdr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// decodeSentinels are the errors callers classify decode failures by.
var decodeSentinels = []error{io.EOF, io.ErrUnexpectedEOF, ErrTooLong, ErrBadBool, ErrBadPadding, ErrBadOptional}

// decodeStep runs one decode op chosen by op and renders its result, so
// two decoders' steps compare as strings.
func decodeStep(d *Decoder, op byte) (string, error) {
	arg := int(op >> 4)
	switch op % 15 {
	case 0:
		v, err := d.Uint32()
		return fmt.Sprint(v), err
	case 1:
		v, err := d.Int32()
		return fmt.Sprint(v), err
	case 2:
		v, err := d.Uint64()
		return fmt.Sprint(v), err
	case 3:
		v, err := d.Int64()
		return fmt.Sprint(v), err
	case 4:
		v, err := d.Bool()
		return fmt.Sprint(v), err
	case 5:
		v, err := d.Float32()
		return fmt.Sprint(math.Float32bits(v)), err
	case 6:
		v, err := d.Float64()
		return fmt.Sprint(math.Float64bits(v)), err
	case 7:
		v, err := d.String()
		return fmt.Sprintf("%q", v), err
	case 8:
		v, err := d.Opaque()
		return fmt.Sprintf("%x", v), err
	case 9:
		v, err := d.OpaqueInto(make([]byte, 0, arg))
		return fmt.Sprintf("%x", v), err
	case 10:
		p := make([]byte, arg)
		err := d.FixedOpaque(p)
		return fmt.Sprintf("%x", p), err
	case 11:
		v, err := d.Uint32Slice()
		return fmt.Sprint(v), err
	case 12:
		v, err := d.Uint64Slice()
		return fmt.Sprint(v), err
	case 13:
		v, err := d.Float64Slice()
		bits := make([]uint64, len(v))
		for i, f := range v {
			bits[i] = math.Float64bits(f) // NaN payloads compare by bits
		}
		return fmt.Sprint(bits), err
	default:
		var inner uint32
		present, err := d.Optional(func(d *Decoder) error {
			var err error
			inner, err = d.Uint32()
			return err
		})
		return fmt.Sprint(present, inner), err
	}
}

// FuzzDecoderModes checks that byte-slice mode is a drop-in for reader
// mode: for any input and any sequence of decode ops, both decoders
// return the same values and fail with the same sentinel errors at the
// same step. The first op byte also picks the maximum item size, so
// inputs reach both the ErrTooLong check and the bytes-left check.
func FuzzDecoderModes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rd := NewDecoder(bytes.NewReader(data))
		bd := NewBytesDecoder(data)
		if rd.Remaining() != -1 {
			t.Fatalf("reader mode Remaining = %d, want -1", rd.Remaining())
		}
		if len(ops) > 0 {
			max := 1 + int(ops[0])*8
			rd.SetMaxSize(max)
			bd.SetMaxSize(max)
		}
		for i, op := range ops {
			rv, rerr := decodeStep(rd, op)
			bv, berr := decodeStep(bd, op)
			if (rerr == nil) != (berr == nil) {
				t.Fatalf("op %d (%d): reader err %v, bytes err %v", i, op%15, rerr, berr)
			}
			for _, s := range decodeSentinels {
				if errors.Is(rerr, s) != errors.Is(berr, s) {
					t.Fatalf("op %d (%d): reader err %v, bytes err %v disagree on %v", i, op%15, rerr, berr, s)
				}
			}
			if rerr != nil {
				return // sticky from here on
			}
			if rv != bv {
				t.Fatalf("op %d (%d): reader %s, bytes %s", i, op%15, rv, bv)
			}
			if rd.Len() != bd.Len() {
				t.Fatalf("op %d: reader consumed %d bytes, bytes mode %d", i, rd.Len(), bd.Len())
			}
			if bd.Remaining() != len(data)-int(bd.Len()) {
				t.Fatalf("op %d: Remaining %d with %d of %d consumed", i, bd.Remaining(), bd.Len(), len(data))
			}
		}
	})
}
