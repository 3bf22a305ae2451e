// Package dnswire implements the DNS wire protocol (RFC 1035): message
// header, questions, and resource records with label compression on both
// encode and decode paths. It is the substrate under DN-Hunter's DNS
// response sniffer and the synthesizer's DNS server model.
//
// The codec is strict where the sniffer needs it to be (bounds, pointer
// loops, label limits) and tolerant elsewhere: unknown RR types are carried
// as opaque RDATA so a capture with exotic records still parses.
package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Limits from RFC 1035 §2.3.4.
const (
	maxLabelLen = 63
	maxNameLen  = 255
)

// Errors returned by the codec.
var (
	ErrTruncatedMsg = errors.New("dnswire: truncated message")
	ErrBadName      = errors.New("dnswire: malformed name")
	ErrPointerLoop  = errors.New("dnswire: compression pointer loop")
	ErrBadRecord    = errors.New("dnswire: malformed resource record")
)

// appendName encodes a dotted name at the end of msg, using and updating the
// compression table (suffix -> offset of its first occurrence). The table
// may be nil to disable compression.
func appendName(msg []byte, name string, table map[string]int) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(msg, 0), nil
	}
	if len(name) > maxNameLen-2 {
		return msg, fmt.Errorf("%w: name too long (%d)", ErrBadName, len(name))
	}
	labels := strings.Split(name, ".")
	for i := range labels {
		suffix := strings.Join(labels[i:], ".")
		if table != nil {
			if off, ok := table[suffix]; ok && off < 0x3fff {
				// Emit a pointer to the earlier occurrence and stop.
				return append(msg, 0xc0|byte(off>>8), byte(off)), nil
			}
			if len(msg) < 0x3fff {
				table[suffix] = len(msg)
			}
		}
		label := labels[i]
		if label == "" || len(label) > maxLabelLen {
			return msg, fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		msg = append(msg, byte(len(label)))
		msg = append(msg, label...)
	}
	return append(msg, 0), nil
}

// Pre-wrapped errors for name decoding, which runs per captured packet.
var (
	errNamePastEnd     = fmt.Errorf("%w: name runs past message", ErrTruncatedMsg)
	errDanglingPointer = fmt.Errorf("%w: dangling pointer", ErrTruncatedMsg)
	errReservedLabel   = fmt.Errorf("%w: reserved label type", ErrBadName)
	errLabelPastEnd    = fmt.Errorf("%w: label runs past message", ErrTruncatedMsg)
	errNameTooLong     = fmt.Errorf("%w: name too long", ErrBadName)
)

// maxHops bounds the compression pointers one name may follow.
const maxHops = 32

// appendNameAt decodes a possibly compressed name starting at off in msg,
// appending it to dst in lowercase dotted form (no trailing dot). It returns
// the extended buffer, the offset just past the name's representation at
// the call site (pointers do not advance the caller's cursor beyond the
// 2-byte pointer itself), and the pointers followed and wire bytes of
// labels read, which bound the name. Decoding into a caller-owned scratch
// buffer is the allocation-free core of the sniffer's DNS path;
// Message.readNameAt wraps it with the reusable scratch buffer, the intern
// table and memo, the names already decoded in this message. A pointer to
// a memoized name start appends that name instead of decoding it again,
// when the combined name stays inside the hop and length limits; otherwise
// decoding goes on label by label, so the errors are the same either way.
func appendNameAt(msg []byte, off int, dst []byte, memo *nameMemo) (_ []byte, end, hops, total int, _ error) {
	mark := len(dst)
	cursor := off
	end = -1 // caller-visible end, set at the first pointer
	for {
		if cursor >= len(msg) {
			return dst[:mark], 0, 0, 0, errNamePastEnd
		}
		c := msg[cursor]
		switch {
		case c == 0:
			if end < 0 {
				end = cursor + 1
			}
			return dst, end, hops, total, nil
		case c&0xc0 == 0xc0:
			if cursor+1 >= len(msg) {
				return dst[:mark], 0, 0, 0, errDanglingPointer
			}
			ptr := int(c&0x3f)<<8 | int(msg[cursor+1])
			if end < 0 {
				end = cursor + 2
			}
			hops++
			if hops > maxHops || ptr >= cursor {
				// Forward or excessive pointers indicate a loop or garbage;
				// RFC-compliant compression only points backwards.
				return dst[:mark], 0, 0, 0, ErrPointerLoop
			}
			if e := memo.at(ptr); e != nil && hops+e.hops <= maxHops && total+e.total <= maxNameLen {
				if len(dst) > mark && e.name != "" {
					dst = append(dst, '.')
				}
				return append(dst, e.name...), end, hops + e.hops, total + e.total, nil
			}
			cursor = ptr
		case c&0xc0 != 0:
			return dst[:mark], 0, 0, 0, errReservedLabel
		default:
			l := int(c)
			if cursor+1+l > len(msg) {
				return dst[:mark], 0, 0, 0, errLabelPastEnd
			}
			total += l + 1
			if total > maxNameLen {
				return dst[:mark], 0, 0, 0, errNameTooLong
			}
			if len(dst) > mark {
				dst = append(dst, '.')
			}
			for _, ch := range msg[cursor+1 : cursor+1+l] {
				if 'A' <= ch && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				dst = append(dst, ch)
			}
			cursor += 1 + l
		}
	}
}

// memoName is one name an Unpack decoded: the offset it starts at, the
// pointers followed and label bytes read decoding it, and its string.
type memoName struct {
	off, hops, total int
	name             string
}

// nameMemo holds the names one Unpack has decoded.
type nameMemo struct {
	n int
	e [8]memoName
}

// at returns the memoized name starting at off, or nil.
func (m *nameMemo) at(off int) *memoName {
	for i := range m.n {
		if m.e[i].off == off {
			return &m.e[i]
		}
	}
	return nil
}

// add memoizes a name; once the memo is full, later names are not kept.
func (m *nameMemo) add(off, hops, total int, name string) {
	if m.n < len(m.e) {
		m.e[m.n] = memoName{off: off, hops: hops, total: total, name: name}
		m.n++
	}
}
