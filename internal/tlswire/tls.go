// Package tlswire implements the subset of TLS needed by the paper's
// certificate-inspection baseline (§5.2.1, Table 4): the record layer and
// the ClientHello (with SNI), ServerHello, and Certificate handshake
// messages.
//
// Certificates on the wire are opaque blobs to TLS; real traffic carries
// X.509 DER. Generating full X.509 chains (keys, signatures) is irrelevant
// to the experiment — the baseline only reads the subject name — so the
// synthesizer emits a minimal DER SEQUENCE holding the subject CommonName,
// built with encoding/asn1, and the inspector parses exactly that.
//
// The decode side is one allocation-free scanner (Scan), DER included: it
// runs on every payload-carrying flow, so it returns slices into the
// scanned bytes and rejects malformed input with static errors.
package tlswire

import (
	"encoding/asn1"
	"encoding/binary"
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// TLS record content types.
const (
	RecordHandshake       = 22
	RecordApplicationData = 23
	RecordAlert           = 21
	RecordChangeCipher    = 20
)

// Handshake message types.
const (
	HandshakeClientHello = 1
	HandshakeServerHello = 2
	HandshakeCertificate = 11
)

// VersionTLS12 is the legacy_version written into records.
const VersionTLS12 = 0x0303

// Errors returned by the codec.
var (
	ErrNotTLS    = errors.New("tlswire: not a TLS record")
	ErrTruncated = errors.New("tlswire: truncated")
	ErrMalformed = errors.New("tlswire: malformed handshake")
)

// Pre-wrapped errors for the decode path: it runs per inspected packet, so
// rejecting a partial or malformed handshake must not allocate. Callers
// match with errors.Is against the sentinels above.
var (
	errRecordHeader  = fmt.Errorf("%w: record header", ErrTruncated)
	errContentType   = fmt.Errorf("%w: content type", ErrNotTLS)
	errRecordVersion = fmt.Errorf("%w: record version", ErrNotTLS)
	errRecordBody    = fmt.Errorf("%w: record body", ErrTruncated)
	errHelloFixed    = fmt.Errorf("%w: clienthello fixed part", ErrTruncated)
	errSessionID     = fmt.Errorf("%w: session id", ErrTruncated)
	errCipherSuites  = fmt.Errorf("%w: cipher suites", ErrTruncated)
	errCompression   = fmt.Errorf("%w: compression", ErrTruncated)
	errExtensions    = fmt.Errorf("%w: extensions", ErrTruncated)
	errExtensionBody = fmt.Errorf("%w: extension body", ErrTruncated)
	errCertListLen   = fmt.Errorf("%w: certificate list length", ErrTruncated)
	errCertList      = fmt.Errorf("%w: certificate list", ErrTruncated)
	errCertEntryLen  = fmt.Errorf("%w: certificate entry length", ErrTruncated)
	errCertEntry     = fmt.Errorf("%w: certificate entry", ErrTruncated)
	errCertDER       = fmt.Errorf("%w: certificate DER", ErrMalformed)
	errCertName      = fmt.Errorf("%w: certificate subject name", ErrMalformed)
	errCertTrailing  = fmt.Errorf("%w: trailing certificate bytes", ErrMalformed)
)

// minimalCert is the DER structure standing in for an X.509 certificate.
type minimalCert struct {
	CommonName string `asn1:"utf8"`
}

// MarshalCertificate encodes a stand-in certificate whose subject common
// name is cn. An empty cn is valid (a nameless certificate).
func MarshalCertificate(cn string) ([]byte, error) {
	return asn1.Marshal(minimalCert{CommonName: cn})
}

// Record is one TLS record.
type Record struct {
	Type    uint8
	Version uint16
	Payload []byte
}

// AppendRecord serializes one record onto b.
func AppendRecord(b []byte, typ uint8, payload []byte) ([]byte, error) {
	if len(payload) > 1<<14 {
		return b, fmt.Errorf("%w: record payload %d > 2^14", ErrMalformed, len(payload))
	}
	b = append(b, typ)
	b = binary.BigEndian.AppendUint16(b, VersionTLS12)
	b = binary.BigEndian.AppendUint16(b, uint16(len(payload)))
	return append(b, payload...), nil
}

// ReadRecord parses one record from the front of data, returning the record
// and the remaining bytes.
func ReadRecord(data []byte) (Record, []byte, error) {
	if len(data) < 5 {
		return Record{}, data, errRecordHeader
	}
	typ := data[0]
	if typ < RecordChangeCipher || typ > RecordApplicationData {
		return Record{}, data, errContentType
	}
	ver := binary.BigEndian.Uint16(data[1:3])
	if ver>>8 != 3 {
		return Record{}, data, errRecordVersion
	}
	n := int(binary.BigEndian.Uint16(data[3:5]))
	if 5+n > len(data) {
		return Record{}, data, errRecordBody
	}
	return Record{Type: typ, Version: ver, Payload: data[5 : 5+n]}, data[5+n:], nil
}

// LooksLikeTLS reports whether data plausibly starts a TLS stream — the
// heuristic the flow classifier uses (handshake record, SSL3+ version).
func LooksLikeTLS(data []byte) bool {
	return len(data) >= 3 && data[0] == RecordHandshake && data[1] == 3
}

// MayLookLikeTLS reports whether data, or some longer stream it starts,
// satisfies LooksLikeTLS: data is too short to decide, and its bytes so
// far agree.
func MayLookLikeTLS(data []byte) bool {
	if len(data) >= 3 {
		return LooksLikeTLS(data)
	}
	return (len(data) < 1 || data[0] == RecordHandshake) && (len(data) < 2 || data[1] == 3)
}

// ClientHello is the subset of the ClientHello message the pipeline writes:
// random, session id, one cipher suite, and the SNI extension.
type ClientHello struct {
	// ServerName is the server_name extension value; empty means the
	// extension is absent.
	ServerName string
}

// extensionServerName is the SNI extension number (RFC 6066).
const extensionServerName = 0

// Marshal encodes the ClientHello as a handshake message body (without the
// record framing).
func (ch *ClientHello) Marshal() ([]byte, error) {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, VersionTLS12)
	body = append(body, make([]byte, 32)...) // random (zero; irrelevant here)
	body = append(body, 0)                   // session id length
	body = append(body, 0, 2, 0x13, 0x01)    // one cipher suite
	body = append(body, 1, 0)                // compression: null

	var exts []byte
	if ch.ServerName != "" {
		if len(ch.ServerName) > 0xffff-5 {
			return nil, fmt.Errorf("%w: server name too long", ErrMalformed)
		}
		var sni []byte
		// server_name_list: one entry of type host_name(0).
		sni = binary.BigEndian.AppendUint16(sni, uint16(len(ch.ServerName)+3))
		sni = append(sni, 0)
		sni = binary.BigEndian.AppendUint16(sni, uint16(len(ch.ServerName)))
		sni = append(sni, ch.ServerName...)
		exts = binary.BigEndian.AppendUint16(exts, extensionServerName)
		exts = binary.BigEndian.AppendUint16(exts, uint16(len(sni)))
		exts = append(exts, sni...)
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(exts)))
	body = append(body, exts...)
	return wrapHandshake(HandshakeClientHello, body)
}

// clientHelloSNI decodes a ClientHello handshake body and returns its
// server_name, aliasing body; empty when the extension is absent. With
// several host_name entries the last one wins.
func clientHelloSNI(body []byte) ([]byte, error) {
	// version(2) + random(32)
	if len(body) < 35 {
		return nil, errHelloFixed
	}
	off := 34
	sidLen := int(body[off])
	off++
	if off+sidLen > len(body) {
		return nil, errSessionID
	}
	off += sidLen
	if off+2 > len(body) {
		return nil, errCipherSuites
	}
	csLen := int(binary.BigEndian.Uint16(body[off:]))
	off += 2 + csLen
	if off >= len(body) {
		return nil, errCompression
	}
	compLen := int(body[off])
	off += 1 + compLen
	if off+2 > len(body) {
		return nil, nil // no extensions block: legal
	}
	extLen := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if off+extLen > len(body) {
		return nil, errExtensions
	}
	exts := body[off : off+extLen]
	var name []byte
	for len(exts) >= 4 {
		typ := binary.BigEndian.Uint16(exts[0:2])
		l := int(binary.BigEndian.Uint16(exts[2:4]))
		if 4+l > len(exts) {
			return nil, errExtensionBody
		}
		if typ == extensionServerName && l >= 5 {
			sni := exts[4 : 4+l]
			// list length(2) + type(1) + name length(2)
			nameLen := int(binary.BigEndian.Uint16(sni[3:5]))
			if 5+nameLen <= len(sni) && sni[2] == 0 {
				name = sni[5 : 5+nameLen]
			}
		}
		exts = exts[4+l:]
	}
	return name, nil
}

// Certificate is the Certificate handshake message: a chain of opaque
// certificate blobs, leaf first.
type Certificate struct {
	Chain [][]byte
}

// Marshal encodes the Certificate handshake message body.
func (c *Certificate) Marshal() ([]byte, error) {
	var list []byte
	for _, cert := range c.Chain {
		if len(cert) > 1<<23 {
			return nil, fmt.Errorf("%w: certificate too large", ErrMalformed)
		}
		list = appendUint24(list, len(cert))
		list = append(list, cert...)
	}
	body := appendUint24(nil, len(list))
	body = append(body, list...)
	return wrapHandshake(HandshakeCertificate, body)
}

// certificateName decodes a Certificate handshake body and returns the
// subject name of the first certificate in the chain whose name decodes.
// ok is false when none does; a malformed chain yields an error and no
// name, even if an earlier entry decoded.
func certificateName(body []byte) (name derString, ok bool, err error) {
	if len(body) < 3 {
		return derString{}, false, errCertListLen
	}
	listLen := uint24(body)
	body = body[3:]
	if listLen > len(body) {
		return derString{}, false, errCertList
	}
	body = body[:listLen]
	for len(body) > 0 {
		if len(body) < 3 {
			return derString{}, false, errCertEntryLen
		}
		n := uint24(body)
		body = body[3:]
		if n > len(body) {
			return derString{}, false, errCertEntry
		}
		if !ok {
			if s, err := subjectName(body[:n]); err == nil {
				name, ok = s, true
			}
		}
		body = body[n:]
	}
	return name, ok, nil
}

// ASN.1 identifier octets: a universal SEQUENCE and the universal
// character-string types encoding/asn1 decodes into a Go string.
const (
	derSequence        = 0x30
	derUTF8String      = 0x0c
	derNumericString   = 0x12
	derPrintableString = 0x13
	derT61String       = 0x14
	derIA5String       = 0x16
	derGeneralString   = 0x1b
	derBMPString       = 0x1e
)

// derString is an ASN.1 character string: its identifier octet and its
// content octets, aliasing the certificate.
type derString struct {
	tag byte
	b   []byte
}

// subjectName decodes a stand-in certificate, DER SEQUENCE { name }, by
// hand. It accepts exactly what encoding/asn1.Unmarshal accepts into
// minimalCert with no bytes left over: DER lengths, any universal string
// type for the name (validated as that type), and elements after the name
// inside the SEQUENCE, which it ignores.
func subjectName(der []byte) (derString, error) {
	tag, seq, rest, err := derElement(der)
	if err != nil || tag != derSequence {
		return derString{}, errCertDER
	}
	if len(rest) != 0 {
		return derString{}, errCertTrailing
	}
	tag, s, _, err := derElement(seq)
	if err != nil {
		return derString{}, errCertDER
	}
	valid := true
	switch tag {
	case derUTF8String:
		valid = utf8.Valid(s)
	case derPrintableString:
		for _, c := range s {
			valid = valid && isPrintable(c)
		}
	case derIA5String:
		for _, c := range s {
			valid = valid && c < utf8.RuneSelf
		}
	case derNumericString:
		for _, c := range s {
			valid = valid && ('0' <= c && c <= '9' || c == ' ')
		}
	case derT61String, derGeneralString:
	case derBMPString:
		valid = len(s)%2 == 0
	default:
		valid = false
	}
	if !valid {
		return derString{}, errCertName
	}
	return derString{tag: tag, b: s}, nil
}

// isPrintable is encoding/asn1's PrintableString alphabet, which also
// admits '*' and '&' as real certificates use them.
func isPrintable(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		'\'' <= c && c <= ')' || '+' <= c && c <= '/' ||
		c == ' ' || c == ':' || c == '=' || c == '?' || c == '*' || c == '&'
}

// derElement splits one DER element off the front of b: its identifier
// octet, its content octets and what follows. It enforces what
// encoding/asn1 enforces: a low tag number (a high one never matches the
// tags subjectName expects), a definite length in minimal form, and
// content inside b.
func derElement(b []byte) (tag byte, content, rest []byte, err error) {
	if len(b) < 2 || b[0]&0x1f == 0x1f {
		return 0, nil, nil, errCertDER
	}
	tag, off := b[0], 2
	length := int(b[1])
	if length&0x80 != 0 {
		n := length & 0x7f
		if n == 0 {
			return 0, nil, nil, errCertDER // indefinite length
		}
		length = 0
		for range n {
			if off >= len(b) || length >= 1<<23 {
				return 0, nil, nil, errCertDER
			}
			length = length<<8 | int(b[off])
			off++
			if length == 0 {
				return 0, nil, nil, errCertDER // leading zero octet
			}
		}
		if length < 0x80 {
			return 0, nil, nil, errCertDER // long form for a short length
		}
	}
	if length > len(b)-off {
		return 0, nil, nil, errCertDER
	}
	return tag, b[off : off+length], b[off+length:], nil
}

// ServerHello is a minimal ServerHello used by the synthesizer to complete
// the handshake shape on the wire.
type ServerHello struct{}

// Marshal encodes a fixed minimal ServerHello handshake message.
func (sh *ServerHello) Marshal() ([]byte, error) {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, VersionTLS12)
	body = append(body, make([]byte, 32)...)
	body = append(body, 0)          // session id
	body = append(body, 0x13, 0x01) // cipher
	body = append(body, 0)          // compression
	return wrapHandshake(HandshakeServerHello, body)
}

func wrapHandshake(typ uint8, body []byte) ([]byte, error) {
	if len(body) > 1<<23 {
		return nil, fmt.Errorf("%w: handshake body too large", ErrMalformed)
	}
	out := []byte{typ}
	out = appendUint24(out, len(body))
	return append(out, body...), nil
}

func appendUint24(b []byte, v int) []byte {
	return append(b, byte(v>>16), byte(v>>8), byte(v))
}

func uint24(b []byte) int {
	return int(b[0])<<16 | int(b[1])<<8 | int(b[2])
}

// Handshake is what Scan extracts from the first bytes of a TLS stream in
// one direction. Its slices alias the scanned bytes.
type Handshake struct {
	// SNI is the server_name of the last ClientHello that decoded
	// (client->server direction); empty when absent.
	SNI []byte
	// HasCert reports that a Certificate message carried a certificate
	// whose subject name decoded (server->client direction). It is false
	// when the server sent none (e.g. session resumption).
	HasCert bool
	// Done reports that no bytes appended to the scanned data can change
	// the result: the scan stopped at a record that is not a handshake
	// record, or inside a complete one, rather than at the end of the data.
	Done bool
	cn   derString
}

// AppendCertName appends the subject name of the first certificate that
// decoded (the leaf, in a well-formed chain) to dst as UTF-8. It appends
// nothing when HasCert is false.
func (h *Handshake) AppendCertName(dst []byte) []byte { return h.cn.appendUTF8(dst) }

// appendUTF8 appends the string's text to dst as encoding/asn1 decodes it
// into a Go string: the content octets, except that a BMPString is
// UTF-16BE, loses a trailing NUL and turns unpaired surrogates into U+FFFD.
func (d derString) appendUTF8(dst []byte) []byte {
	if d.tag != derBMPString {
		return append(dst, d.b...)
	}
	s := d.b
	if l := len(s); l >= 2 && s[l-1] == 0 && s[l-2] == 0 {
		s = s[:l-2]
	}
	for i := 0; i+1 < len(s); i += 2 {
		r := rune(s[i])<<8 | rune(s[i+1])
		if utf16.IsSurrogate(r) && i+3 < len(s) {
			if pair := utf16.DecodeRune(r, rune(s[i+2])<<8|rune(s[i+3])); pair != utf8.RuneError {
				r = pair
				i += 2
			}
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// Scan walks the TLS records at the start of a reassembled stream prefix
// and extracts the ClientHello SNI and the first certificate subject name.
// It stops at the first non-handshake record, a partial record, or
// malformed data, returning whatever it found; inspection is best-effort
// exactly like a passive DPI device. Scan does not allocate.
func Scan(data []byte) Handshake {
	var h Handshake
	for len(data) > 0 {
		if data[0] != RecordHandshake || len(data) > 1 && data[1] != 3 {
			// No later byte makes this a handshake record.
			h.Done = true
			return h
		}
		rec, rest, err := ReadRecord(data)
		if err != nil {
			return h // a partial record: more bytes may complete it
		}
		hs := rec.Payload
		for len(hs) >= 4 {
			typ := hs[0]
			n := uint24(hs[1:4])
			if 4+n > len(hs) {
				h.Done = true
				return h
			}
			body := hs[4 : 4+n]
			switch typ {
			case HandshakeClientHello:
				if sni, err := clientHelloSNI(body); err == nil {
					h.SNI = sni
				}
			case HandshakeCertificate:
				if !h.HasCert {
					if cn, ok, err := certificateName(body); err == nil && ok {
						h.cn, h.HasCert = cn, true
					}
				}
			}
			hs = hs[4+n:]
		}
		data = rest
	}
	return h
}
