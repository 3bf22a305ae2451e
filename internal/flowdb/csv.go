package flowdb

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/flows"
	"repro/internal/layers"
)

// csv.go serializes labeled flows so cmd/dnhunter can hand results to
// cmd/analyzer (and to anything else that speaks CSV).

var csvHeader = []string{
	"start_ms", "end_ms", "client", "server", "cport", "sport", "proto",
	"l7", "label", "labeled", "preflow", "dns_delay_ms", "first_after_dns",
	"pkts_c2s", "pkts_s2c", "bytes_c2s", "bytes_s2c", "sni", "cert", "truth",
	"vantage",
}

// legacyCSVColumns is the column count before the vantage column was added;
// ReadCSV still accepts files written by older versions.
const legacyCSVColumns = 20

// csvFlushAt is the buffered byte count at which WriteCSV hands its rows
// to the writer; the buffer is allocated with twice that, so no ordinary
// row ever regrows it.
const csvFlushAt = 32 << 10

// csvBufs holds WriteCSV's row buffers, so a serve loop that writes a
// window every few minutes reuses one instead of allocating 64 KiB each
// time, and concurrent writers each get their own.
var csvBufs = sync.Pool{New: func() any { return new([2 * csvFlushAt]byte) }}

// WriteCSV writes the whole database as CSV with a header row. The bytes
// are exactly what encoding/csv.Writer writes for the same fields, but
// every row is appended into one pooled buffer, so the write allocates
// nothing once the pool is warm.
func (db *DB) WriteCSV(w io.Writer) error {
	buf := csvBufs.Get().(*[2 * csvFlushAt]byte)
	defer csvBufs.Put(buf)
	b := buf[:0]
	for i, h := range csvHeader {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCSVField(b, h)
	}
	b = append(b, '\n')
	var f LabeledFlow
	for i := range db.n {
		db.Load(i, &f)
		b = appendCSVRow(b, &f)
		if len(b) >= csvFlushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	_, err := w.Write(b)
	return err
}

// appendCSVRow appends f as one CSV row, newline included.
func appendCSVRow(b []byte, f *LabeledFlow) []byte {
	b = strconv.AppendInt(b, f.Start.Milliseconds(), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.End.Milliseconds(), 10)
	b = append(b, ',')
	b = appendCSVAddr(b, f.Key.ClientIP)
	b = append(b, ',')
	b = appendCSVAddr(b, f.Key.ServerIP)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(f.Key.ClientPort), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(f.Key.ServerPort), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(f.Key.Proto), 10)
	b = append(b, ',')
	b = appendCSVField(b, f.L7.String())
	b = append(b, ',')
	b = appendCSVField(b, f.Label)
	b = append(b, ',')
	b = appendCSVBool(b, f.Labeled)
	b = append(b, ',')
	b = appendCSVBool(b, f.PreFlow)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.DNSDelay.Milliseconds(), 10)
	b = append(b, ',')
	b = appendCSVBool(b, f.FirstAfterDNS)
	b = append(b, ',')
	b = strconv.AppendUint(b, f.PktsC2S, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, f.PktsS2C, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, f.BytesC2S, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, f.BytesS2C, 10)
	b = append(b, ',')
	b = appendCSVField(b, f.SNI)
	b = append(b, ',')
	b = appendCSVField(b, f.CertName)
	b = append(b, ',')
	b = appendCSVField(b, f.Truth)
	b = append(b, ',')
	b = appendCSVField(b, f.Vantage)
	return append(b, '\n')
}

func appendCSVBool(b []byte, v bool) []byte {
	if v {
		return append(b, '1')
	}
	return append(b, '0')
}

// appendCSVAddr appends a as the field a.String() would make. Only a
// zoned address takes the allocating path: its zone may need quoting.
// The zero Addr's String is a constant, where AppendTo writes nothing.
func appendCSVAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() || a.Zone() != "" {
		return appendCSVField(b, a.String())
	}
	return a.AppendTo(b)
}

// appendCSVField appends s as encoding/csv.Writer (comma ',', LF line
// ends) writes a field: quoted, with inner quotes doubled, exactly when
// csvNeedsQuotes says so.
func appendCSVField(b []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		b = append(b, s[:i+1]...)
		b = append(b, '"')
		s = s[i+1:]
	}
	b = append(b, s...)
	return append(b, '"')
}

// csvNeedsQuotes is encoding/csv.Writer's quoting rule for comma ',':
// never the empty field; always `\.`; any field holding a quote, comma,
// CR or LF; and any field whose first rune is a Unicode space.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` || strings.ContainsAny(s, "\",\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// ReadCSV loads a database written by WriteCSV.
func ReadCSV(r io.Reader) (*DB, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("flowdb: reading CSV header: %w", err)
	}
	if (len(header) != len(csvHeader) && len(header) != legacyCSVColumns) || header[0] != csvHeader[0] {
		return nil, fmt.Errorf("flowdb: unexpected CSV header %v", header)
	}
	db := New()
	cr.FieldsPerRecord = len(header)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return db, nil
		}
		if err != nil {
			return nil, err
		}
		line++
		f, err := parseCSVRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("flowdb: line %d: %w", line, err)
		}
		db.Add(f)
	}
}

// maxMs bounds a millisecond field: the largest magnitude a time.Duration
// holds in whole milliseconds.
const maxMs = math.MaxInt64 / int64(time.Millisecond)

func parseCSVRecord(rec []string) (LabeledFlow, error) {
	var f LabeledFlow
	ms := func(s string) (time.Duration, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil && (v > maxMs || v < -maxMs) {
			err = fmt.Errorf("%s ms overflows a duration", s)
		}
		return time.Duration(v) * time.Millisecond, err
	}
	var err error
	if f.Start, err = ms(rec[0]); err != nil {
		return f, err
	}
	if f.End, err = ms(rec[1]); err != nil {
		return f, err
	}
	client, err := netip.ParseAddr(rec[2])
	if err != nil {
		return f, err
	}
	server, err := netip.ParseAddr(rec[3])
	if err != nil {
		return f, err
	}
	cport, err := strconv.ParseUint(rec[4], 10, 16)
	if err != nil {
		return f, err
	}
	sport, err := strconv.ParseUint(rec[5], 10, 16)
	if err != nil {
		return f, err
	}
	proto, err := strconv.ParseUint(rec[6], 10, 8)
	if err != nil {
		return f, err
	}
	f.Key = flows.Key{
		ClientIP: client, ServerIP: server,
		ClientPort: uint16(cport), ServerPort: uint16(sport),
		Proto: layers.IPProtocol(proto),
	}
	f.L7 = parseL7(rec[7])
	f.Label = rec[8]
	f.Labeled = rec[9] == "1"
	f.PreFlow = rec[10] == "1"
	if f.DNSDelay, err = ms(rec[11]); err != nil {
		return f, err
	}
	f.FirstAfterDNS = rec[12] == "1"
	if f.PktsC2S, err = strconv.ParseUint(rec[13], 10, 64); err != nil {
		return f, err
	}
	if f.PktsS2C, err = strconv.ParseUint(rec[14], 10, 64); err != nil {
		return f, err
	}
	if f.BytesC2S, err = strconv.ParseUint(rec[15], 10, 64); err != nil {
		return f, err
	}
	if f.BytesS2C, err = strconv.ParseUint(rec[16], 10, 64); err != nil {
		return f, err
	}
	f.SNI = rec[17]
	// The cert column cannot tell a nameless certificate from none, so an
	// empty field reads back as no certificate.
	f.CertName, f.HasCert = rec[18], rec[18] != ""
	f.Truth = rec[19]
	if len(rec) > 20 {
		f.Vantage = rec[20]
	}
	return f, nil
}

func parseL7(s string) flows.L7Proto {
	switch strings.ToUpper(s) {
	case "HTTP":
		return flows.L7HTTP
	case "TLS":
		return flows.L7TLS
	case "P2P":
		return flows.L7P2P
	case "DNS":
		return flows.L7DNS
	default:
		return flows.L7Unknown
	}
}
