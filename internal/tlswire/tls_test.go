package tlswire

import (
	"bytes"
	"encoding/asn1"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// --- reference model ----------------------------------------------------------
//
// The decoders below are the straightforward heap-allocating ones: a
// *ClientHello and a *Certificate per message, a [][]byte chain, and
// reflective encoding/asn1 for the stand-in certificate. They are the
// oracle the allocation-free scanner is fuzzed against.

func refParseCertificate(der []byte) (string, error) {
	var c minimalCert
	rest, err := asn1.Unmarshal(der, &c)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("%w: trailing certificate bytes", ErrMalformed)
	}
	return c.CommonName, nil
}

func refParseClientHello(body []byte) (*ClientHello, error) {
	ch := &ClientHello{}
	if len(body) < 35 {
		return nil, fmt.Errorf("%w: clienthello fixed part", ErrTruncated)
	}
	off := 34
	sidLen := int(body[off])
	off++
	if off+sidLen > len(body) {
		return nil, fmt.Errorf("%w: session id", ErrTruncated)
	}
	off += sidLen
	if off+2 > len(body) {
		return nil, fmt.Errorf("%w: cipher suites", ErrTruncated)
	}
	csLen := int(binary.BigEndian.Uint16(body[off:]))
	off += 2 + csLen
	if off >= len(body) {
		return nil, fmt.Errorf("%w: compression", ErrTruncated)
	}
	compLen := int(body[off])
	off += 1 + compLen
	if off+2 > len(body) {
		return ch, nil
	}
	extLen := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if off+extLen > len(body) {
		return nil, fmt.Errorf("%w: extensions", ErrTruncated)
	}
	exts := body[off : off+extLen]
	for len(exts) >= 4 {
		typ := binary.BigEndian.Uint16(exts[0:2])
		l := int(binary.BigEndian.Uint16(exts[2:4]))
		if 4+l > len(exts) {
			return nil, fmt.Errorf("%w: extension body", ErrTruncated)
		}
		if typ == extensionServerName && l >= 5 {
			sni := exts[4 : 4+l]
			nameLen := int(binary.BigEndian.Uint16(sni[3:5]))
			if 5+nameLen <= len(sni) && sni[2] == 0 {
				ch.ServerName = string(sni[5 : 5+nameLen])
			}
		}
		exts = exts[4+l:]
	}
	return ch, nil
}

func refParseCertificateMsg(body []byte) (*Certificate, error) {
	if len(body) < 3 {
		return nil, fmt.Errorf("%w: certificate list length", ErrTruncated)
	}
	listLen := uint24(body)
	body = body[3:]
	if listLen > len(body) {
		return nil, fmt.Errorf("%w: certificate list", ErrTruncated)
	}
	body = body[:listLen]
	c := &Certificate{}
	for len(body) > 0 {
		if len(body) < 3 {
			return nil, fmt.Errorf("%w: certificate entry length", ErrTruncated)
		}
		n := uint24(body)
		body = body[3:]
		if n > len(body) {
			return nil, fmt.Errorf("%w: certificate entry", ErrTruncated)
		}
		c.Chain = append(c.Chain, body[:n])
		body = body[n:]
	}
	return c, nil
}

// refInfo is what the reference stream inspection extracts.
type refInfo struct {
	SNI              string
	CertificateNames []string
}

func refInspect(data []byte) refInfo {
	var info refInfo
	for len(data) > 0 {
		rec, rest, err := ReadRecord(data)
		if err != nil || rec.Type != RecordHandshake {
			return info
		}
		hs := rec.Payload
		for len(hs) >= 4 {
			typ := hs[0]
			n := uint24(hs[1:4])
			if 4+n > len(hs) {
				return info
			}
			body := hs[4 : 4+n]
			switch typ {
			case HandshakeClientHello:
				if ch, err := refParseClientHello(body); err == nil {
					info.SNI = ch.ServerName
				}
			case HandshakeCertificate:
				if c, err := refParseCertificateMsg(body); err == nil {
					for _, der := range c.Chain {
						if cn, err := refParseCertificate(der); err == nil {
							info.CertificateNames = append(info.CertificateNames, cn)
						}
					}
				}
			}
			hs = hs[4+n:]
		}
		data = rest
	}
	return info
}

// --- differential checks ------------------------------------------------------

// checkScanMatchesRef requires Scan to agree with the reference inspection
// on SNI, certificate presence and the first certificate name, and Done to
// hold its promise: every prefix Scan calls done scans like the whole input.
func checkScanMatchesRef(t *testing.T, data []byte) {
	t.Helper()
	h, ref := Scan(data), refInspect(data)
	if string(h.SNI) != ref.SNI {
		t.Fatalf("SNI %q, reference %q", h.SNI, ref.SNI)
	}
	if h.HasCert != (len(ref.CertificateNames) > 0) {
		t.Fatalf("HasCert %v, reference names %q", h.HasCert, ref.CertificateNames)
	}
	if cn := string(h.AppendCertName(nil)); h.HasCert && cn != ref.CertificateNames[0] {
		t.Fatalf("certificate name %q, reference %q", cn, ref.CertificateNames[0])
	}
	for cut := range len(data) {
		p := Scan(data[:cut])
		if !p.Done {
			continue
		}
		if !bytes.Equal(p.SNI, h.SNI) || p.HasCert != h.HasCert ||
			!bytes.Equal(p.AppendCertName(nil), h.AppendCertName(nil)) || !h.Done {
			t.Fatalf("prefix %d of %d is done but scans differently from the whole", cut, len(data))
		}
	}
}

// errClass names which sentinel err wraps.
func errClass(err error) string {
	for _, s := range []error{ErrNotTLS, ErrTruncated, ErrMalformed} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	if err != nil {
		return "unclassified: " + err.Error()
	}
	return "ok"
}

// handshakeRecord frames handshake messages in one record.
func handshakeRecord(t testing.TB, msgs ...[]byte) []byte {
	raw, err := AppendRecord(nil, RecordHandshake, bytes.Join(msgs, nil))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func mustMarshal(t testing.TB, m interface{ Marshal() ([]byte, error) }) []byte {
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustCert(t testing.TB, cn string) []byte {
	der, err := MarshalCertificate(cn)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// FuzzClientHello compares the scanner with the reference decoders on
// client->server streams and on raw ClientHello bodies.
func FuzzClientHello(f *testing.F) {
	hello := mustMarshal(f, &ClientHello{ServerName: "mail.google.com"})
	full := handshakeRecord(f, hello)
	f.Add(full)
	f.Add(handshakeRecord(f, mustMarshal(f, &ClientHello{})))
	f.Add(full[:len(full)-6]) // record cut mid-extension
	// A ClientHello split across two records: neither record holds the
	// whole message.
	split, _ := AppendRecord(nil, RecordHandshake, hello[:40])
	split, _ = AppendRecord(split, RecordHandshake, hello[40:])
	f.Add(split)
	// An SNI list whose entry is not host_name.
	other := bytes.Clone(hello)
	other[len(other)-len("mail.google.com")-3] = 1
	f.Add(handshakeRecord(f, other))
	// Two ClientHellos, the second without SNI, then application data.
	two := handshakeRecord(f, hello, mustMarshal(f, &ClientHello{}))
	two, _ = AppendRecord(two, RecordApplicationData, []byte("data"))
	f.Add(two)
	f.Add([]byte{22, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScanMatchesRef(t, data)
		sni, err := clientHelloSNI(data)
		ref, refErr := refParseClientHello(data)
		if errClass(err) != errClass(refErr) {
			t.Fatalf("clientHelloSNI error %v, reference %v", err, refErr)
		}
		if err == nil && string(sni) != ref.ServerName {
			t.Fatalf("clientHelloSNI %q, reference %q", sni, ref.ServerName)
		}
	})
}

// FuzzCertificate compares the scanner with the reference decoders on
// server->client streams, Certificate bodies and stand-in certificates.
func FuzzCertificate(f *testing.F) {
	sh := mustMarshal(f, &ServerHello{})
	leaf, inter := mustCert(f, "*.zynga.com"), mustCert(f, "Intermediate CA")
	f.Add(handshakeRecord(f, sh, mustMarshal(f, &Certificate{Chain: [][]byte{leaf, inter}})))
	f.Add(handshakeRecord(f, sh, mustMarshal(f, &Certificate{Chain: [][]byte{mustCert(f, "")}})))
	f.Add(leaf)
	f.Add(append(bytes.Clone(leaf), 0))                   // trailing DER bytes
	f.Add([]byte{0x30, 0x05, 0x0c, 0x03, 0xff, 'a', 'b'}) // non-UTF-8 name
	f.Add([]byte{0x30, 0x06, 0x1e, 0x04, 0xd8, 0x3d, 0xde, 0x00})
	f.Add([]byte{0x30, 0x81, 0x03, 0x13, 0x01, '*'})
	f.Add([]byte{0, 0, 5, 0, 0, 2, 0x30, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScanMatchesRef(t, data)
		name, nameErr := subjectName(data)
		refName, refErr := refParseCertificate(data)
		if (nameErr == nil) != (refErr == nil) {
			t.Fatalf("subjectName error %v, reference %v", nameErr, refErr)
		}
		if nameErr == nil {
			if got := string(name.appendUTF8(nil)); got != refName {
				t.Fatalf("subjectName %q, reference %q", got, refName)
			}
		}
		cn, ok, err := certificateName(data)
		msg, msgErr := refParseCertificateMsg(data)
		if errClass(err) != errClass(msgErr) {
			t.Fatalf("certificateName error %v, reference %v", err, msgErr)
		}
		if err != nil {
			return
		}
		var refNames []string
		for _, der := range msg.Chain {
			if n, err := refParseCertificate(der); err == nil {
				refNames = append(refNames, n)
			}
		}
		if ok != (len(refNames) > 0) {
			t.Fatalf("certificateName ok %v, reference names %q", ok, refNames)
		}
		if got := string(cn.appendUTF8(nil)); ok && got != refNames[0] {
			t.Fatalf("certificateName %q, reference %q", got, refNames[0])
		}
	})
}

// TestSubjectNameStringTypes pins each universal string type the reference
// decoder accepts for the name, and the ones it rejects.
func TestSubjectNameStringTypes(t *testing.T) {
	for _, tc := range []struct {
		der  []byte
		want string // "" with ok=false: rejected
		ok   bool
	}{
		{[]byte{0x30, 0x03, 0x0c, 0x01, 'a'}, "a", true},
		{[]byte{0x30, 0x03, 0x13, 0x01, '*'}, "*", true},
		{[]byte{0x30, 0x03, 0x13, 0x01, '_'}, "", false},
		{[]byte{0x30, 0x03, 0x16, 0x01, '_'}, "_", true},
		{[]byte{0x30, 0x03, 0x16, 0x01, 0x80}, "", false},
		{[]byte{0x30, 0x03, 0x12, 0x01, '7'}, "7", true},
		{[]byte{0x30, 0x03, 0x12, 0x01, 'x'}, "", false},
		{[]byte{0x30, 0x03, 0x14, 0x01, 0xff}, "\xff", true},
		{[]byte{0x30, 0x03, 0x1b, 0x01, 'g'}, "g", true},
		{[]byte{0x30, 0x06, 0x1e, 0x04, 0x00, 'h', 0x00, 0x00}, "h", true},
		{[]byte{0x30, 0x04, 0x1e, 0x02, 0xd8, 0x00}, "�", true},
		{[]byte{0x30, 0x03, 0x1e, 0x01, 'h'}, "", false},
		{[]byte{0x30, 0x03, 0x04, 0x01, 'o'}, "", false}, // OCTET STRING
		{[]byte{0x30, 0x03, 0x2c, 0x01, 'a'}, "", false}, // constructed
		{[]byte{0x30, 0x06, 0x0c, 0x01, 'a', 0x02, 0x01, 0x05}, "a", true},
		{[]byte{0x30, 0x81, 0x03, 0x0c, 0x01, 'a'}, "", false}, // non-minimal length
		{[]byte{0x30, 0x80, 0x0c, 0x01, 'a', 0, 0}, "", false}, // indefinite length
		{[]byte{0x31, 0x03, 0x0c, 0x01, 'a'}, "", false},       // SET
		{[]byte{0x30, 0x00}, "", false},
	} {
		name, err := subjectName(tc.der)
		_, refErr := refParseCertificate(tc.der)
		if (err == nil) != tc.ok || (refErr == nil) != tc.ok {
			t.Fatalf("% x: err %v, reference %v, want ok=%v", tc.der, err, refErr, tc.ok)
		}
		if got := string(name.appendUTF8(nil)); tc.ok && got != tc.want {
			t.Fatalf("% x: name %q, want %q", tc.der, got, tc.want)
		}
	}
}

func TestCertificateMarshalParse(t *testing.T) {
	for _, cn := range []string{"www.example.com", "*.google.com", "a248.e.akamai.net", ""} {
		name, err := subjectName(mustCert(t, cn))
		if err != nil {
			t.Fatal(err)
		}
		if got := string(name.b); got != cn {
			t.Fatalf("cn = %q, want %q", got, cn)
		}
	}
}

func TestParseCertificateRejectsGarbage(t *testing.T) {
	if _, err := subjectName([]byte{0xff, 0x00, 0x01}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestParseCertificateRejectsTrailing(t *testing.T) {
	if _, err := subjectName(append(mustCert(t, "x"), 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed for trailing bytes", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	payload := []byte("handshake bytes")
	raw, err := AppendRecord(nil, RecordHandshake, payload)
	if err != nil {
		t.Fatal(err)
	}
	rec, rest, err := ReadRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != RecordHandshake || string(rec.Payload) != string(payload) || len(rest) != 0 {
		t.Fatalf("rec = %+v rest = %v", rec, rest)
	}
}

func TestReadRecordErrors(t *testing.T) {
	if _, _, err := ReadRecord([]byte{22, 3}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	if _, _, err := ReadRecord([]byte{99, 3, 3, 0, 0}); !errors.Is(err, ErrNotTLS) {
		t.Fatalf("bad type: %v", err)
	}
	if _, _, err := ReadRecord([]byte{22, 9, 3, 0, 0}); !errors.Is(err, ErrNotTLS) {
		t.Fatalf("bad version: %v", err)
	}
	if _, _, err := ReadRecord([]byte{22, 3, 3, 0, 10, 1, 2}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short body: %v", err)
	}
}

// TestDecodeErrorsDoNotAllocate pins the static errors: rejecting a
// partial record or a malformed handshake allocates nothing.
func TestDecodeErrorsDoNotAllocate(t *testing.T) {
	hello := mustMarshal(t, &ClientHello{ServerName: "x.example"})
	bad := [][]byte{
		{22, 3}, {99, 3, 3, 0, 0}, {22, 9, 3, 0, 0}, {22, 3, 3, 0, 10, 1, 2},
		handshakeRecord(t, hello)[:30],
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range bad {
			_, _, _ = ReadRecord(b)
			_ = Scan(b)
		}
		_, _ = clientHelloSNI(hello[4:20])
		_, _, _ = certificateName([]byte{0, 0, 9, 0})
		_, _ = subjectName([]byte{0x30, 0x03, 0x0c, 0x01, 0xff})
	}); n != 0 {
		t.Fatalf("decode errors allocate %v per pass, want 0", n)
	}
}

func TestScanZeroAlloc(t *testing.T) {
	c2s := handshakeRecord(t, mustMarshal(t, &ClientHello{ServerName: "mail.google.com"}))
	s2c := handshakeRecord(t, mustMarshal(t, &ServerHello{}),
		mustMarshal(t, &Certificate{Chain: [][]byte{mustCert(t, "*.google.com")}}))
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		_ = Scan(c2s)
		h := Scan(s2c)
		buf = h.AppendCertName(buf[:0])
	}); n != 0 {
		t.Fatalf("Scan allocates %v per pass, want 0", n)
	}
}

func TestAppendRecordTooLarge(t *testing.T) {
	if _, err := AppendRecord(nil, RecordHandshake, make([]byte, 1<<14+1)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestLooksLikeTLS(t *testing.T) {
	if !LooksLikeTLS([]byte{22, 3, 1, 0, 0}) {
		t.Fatal("handshake record should look like TLS")
	}
	if LooksLikeTLS([]byte("GET / HTTP/1.1")) {
		t.Fatal("HTTP should not look like TLS")
	}
	if LooksLikeTLS([]byte{22}) {
		t.Fatal("too-short data should not look like TLS")
	}
	for _, tc := range []struct {
		data []byte
		want bool
	}{
		{nil, true}, {[]byte{22}, true}, {[]byte{22, 3}, true}, {[]byte{22, 3, 1, 0}, true},
		{[]byte{23}, false}, {[]byte{22, 2}, false}, {[]byte("GET / HTTP/1.1"), false},
	} {
		if got := MayLookLikeTLS(tc.data); got != tc.want {
			t.Fatalf("MayLookLikeTLS(% x) = %v, want %v", tc.data, got, tc.want)
		}
	}
}

func TestClientHelloSNIRoundTrip(t *testing.T) {
	raw := handshakeRecord(t, mustMarshal(t, &ClientHello{ServerName: "mail.google.com"}))
	if h := Scan(raw); string(h.SNI) != "mail.google.com" || h.Done {
		t.Fatalf("SNI = %q done = %v", h.SNI, h.Done)
	}
}

func TestClientHelloNoSNI(t *testing.T) {
	raw := handshakeRecord(t, mustMarshal(t, &ClientHello{}))
	if h := Scan(raw); len(h.SNI) != 0 {
		t.Fatalf("SNI = %q, want empty", h.SNI)
	}
}

func TestServerSideCertificateFlow(t *testing.T) {
	cert := mustMarshal(t, &Certificate{Chain: [][]byte{mustCert(t, "*.zynga.com"), mustCert(t, "Intermediate CA")}})
	// ServerHello and Certificate coalesced in one record, like real stacks.
	raw := handshakeRecord(t, mustMarshal(t, &ServerHello{}), cert)
	h := Scan(raw)
	if !h.HasCert || string(h.AppendCertName(nil)) != "*.zynga.com" {
		t.Fatalf("cert = %v %q", h.HasCert, h.AppendCertName(nil))
	}
	checkScanMatchesRef(t, raw)
}

func TestNamelessCertificateIsPresent(t *testing.T) {
	raw := handshakeRecord(t, mustMarshal(t, &Certificate{Chain: [][]byte{mustCert(t, "")}}))
	if h := Scan(raw); !h.HasCert || len(h.AppendCertName(nil)) != 0 {
		t.Fatalf("nameless certificate: HasCert %v name %q", h.HasCert, h.AppendCertName(nil))
	}
}

func TestCertificateAcrossTwoRecords(t *testing.T) {
	raw := handshakeRecord(t, mustMarshal(t, &ServerHello{}))
	raw, err := AppendRecord(raw, RecordHandshake,
		mustMarshal(t, &Certificate{Chain: [][]byte{mustCert(t, "www.dropbox.com")}}))
	if err != nil {
		t.Fatal(err)
	}
	if h := Scan(raw); !h.HasCert || string(h.AppendCertName(nil)) != "www.dropbox.com" {
		t.Fatalf("cert = %v %q", h.HasCert, h.AppendCertName(nil))
	}
}

func TestInspectStopsAtApplicationData(t *testing.T) {
	raw, err := AppendRecord(nil, RecordApplicationData, []byte("junk"))
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, handshakeRecord(t, mustMarshal(t, &ClientHello{ServerName: "x.com"}))...)
	// The handshake record comes after app data, so inspection finds nothing.
	if h := Scan(raw); len(h.SNI) != 0 || !h.Done {
		t.Fatalf("SNI = %q done = %v, want empty and done", h.SNI, h.Done)
	}
}

func TestInspectPartialRecord(t *testing.T) {
	raw := handshakeRecord(t, mustMarshal(t, &ClientHello{ServerName: "partial.example.com"}))
	// Cut mid-record: inspection must return cleanly with nothing found,
	// and more bytes may still complete the record.
	if h := Scan(raw[:len(raw)/2]); len(h.SNI) != 0 || h.Done {
		t.Fatalf("SNI = %q done = %v from a partial record", h.SNI, h.Done)
	}
}

func TestInspectNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		checkScanMatchesRef(t, data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSNIRoundTrip(t *testing.T) {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	f := func(a byte, n uint8) bool {
		var sb strings.Builder
		l := 1 + int(n)%40
		for i := 0; i < l; i++ {
			sb.WriteByte(alpha[(int(a)+i)%len(alpha)])
		}
		name := sb.String() + ".example.com"
		hs, err := (&ClientHello{ServerName: name}).Marshal()
		if err != nil {
			return false
		}
		raw, err := AppendRecord(nil, RecordHandshake, hs)
		if err != nil {
			return false
		}
		return string(Scan(raw).SNI) == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
