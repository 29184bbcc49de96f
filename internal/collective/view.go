package collective

import "unsafe"

// Scalar constrains the element types a collective moves as their raw
// bytes, in the host's native order: fixed-layout numerics.
type Scalar interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~int |
		~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uint |
		~float32 | ~float64
}

// AsBytes views s as its backing bytes (zero copy).
func AsBytes[T Scalar](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
}

// asFloat64s views b, which must be float64-aligned, as the len(b)/8
// float64s it holds (zero copy).
func asFloat64s(b []byte) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}
