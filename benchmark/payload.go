package main

import (
	"encoding/binary"
	"math/rand"
)

// payload is the broadcast message of one workload: seeded bytes, with
// the round number stamped at the head of every chunk so a rank can tell
// a chunk that was never delivered (or delivered from an earlier round)
// without comparing every byte.
type payload struct {
	base   []byte // the seeded image, stamp positions included
	img    []byte // scratch for image, so the full compares leave no garbage behind
	stride int
}

const stampLen = 8

func newPayload(seed int64, size, stride int) *payload {
	p := &payload{base: make([]byte, size), img: make([]byte, size), stride: stride}
	rand.New(rand.NewSource(seed)).Read(p.base)
	return p
}

// stampValue is never zero, so a buffer nobody wrote fails the check.
func stampValue(round int) uint64 { return uint64(round) + 1 }

// stamp writes round's stamps into buf (the root's copy of the payload).
func (p *payload) stamp(buf []byte, round int) {
	v := stampValue(round)
	for off := 0; off+stampLen <= len(buf); off += p.stride {
		binary.LittleEndian.PutUint64(buf[off:], v)
	}
}

// stamped reports whether every stamp in buf carries round.
func (p *payload) stamped(buf []byte, round int) bool {
	v := stampValue(round)
	for off := 0; off+stampLen <= len(buf); off += p.stride {
		if binary.LittleEndian.Uint64(buf[off:]) != v {
			return false
		}
	}
	return true
}

// image is the exact message of round: the seeded bytes with that
// round's stamps. The result is valid until the next call.
func (p *payload) image(round int) []byte {
	copy(p.img, p.base)
	p.stamp(p.img, round)
	return p.img
}
