package stats

import "strings"

// Domain-name token utilities implementing the decomposition used throughout
// the paper: TLD, second-level domain ("the organization"), and the service
// tokens of Algorithm 4 (all labels except TLD and SLD, split on
// non-alphanumeric separators, digit runs generalized to 'N').

// multiTLD lists common two-label public suffixes so that e.g.
// bbc.co.uk yields SLD "bbc.co.uk" rather than "co.uk". The paper's traces
// are European and North American; this small static set mirrors the
// practically relevant suffixes without importing a full PSL.
var multiTLD = map[string]struct{}{
	"co.uk": {}, "org.uk": {}, "ac.uk": {}, "gov.uk": {},
	"com.au": {}, "net.au": {}, "org.au": {},
	"co.jp": {}, "ne.jp": {}, "or.jp": {},
	"com.br": {}, "com.cn": {}, "com.tr": {},
}

// SplitFQDN breaks a dotted name into labels, dropping any trailing root dot
// and lowercasing. An empty name yields nil.
func SplitFQDN(fqdn string) []string {
	fqdn = strings.TrimSuffix(strings.ToLower(strings.TrimSpace(fqdn)), ".")
	if fqdn == "" {
		return nil
	}
	return strings.Split(fqdn, ".")
}

// SLD returns the second-level domain — the organization-identifying suffix,
// e.g. SLD("smtp2.mail.google.com") == "google.com". Names that are bare
// TLDs (or empty) are returned unchanged in lowercase.
//
// The result is a suffix substring of the (normalized) input, so for names
// that are already clean and lowercase — everything the DNS decoder emits —
// the call performs no allocation. The flow database computes an SLD per
// labeled flow, which put the old Split+Join implementation among the
// pipeline's top allocators.
func SLD(fqdn string) string {
	fqdn = strings.TrimSuffix(strings.ToLower(strings.TrimSpace(fqdn)), ".")
	if fqdn == "" {
		return ""
	}
	i := strings.LastIndexByte(fqdn, '.')
	if i < 0 {
		return fqdn // bare TLD
	}
	j := strings.LastIndexByte(fqdn[:i], '.')
	tldLabels := 1
	if _, ok := multiTLD[fqdn[j+1:]]; ok {
		tldLabels = 2
	}
	// Walk back tldLabels+1 dots from the end; the suffix after the last
	// one walked past is the SLD.
	end := len(fqdn)
	for k := 0; k <= tldLabels; k++ {
		dot := strings.LastIndexByte(fqdn[:end], '.')
		if dot < 0 {
			return fqdn // fewer labels than TLD+1: return whole name
		}
		end = dot
	}
	return fqdn[end+1:]
}

// GeneralizeDigits replaces every maximal run of ASCII digits with a single
// 'N', so "smtp2" and "smtp17" collapse to the same token "smtpN"
// (Algorithm 4, lines 5–7).
func GeneralizeDigits(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	inDigits := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			if !inDigits {
				b.WriteByte('N')
				inDigits = true
			}
			continue
		}
		inDigits = false
		b.WriteByte(c)
	}
	return b.String()
}

// isAlnum reports whether c is an ASCII letter or digit.
func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// splitNonAlnum splits s on every run of non-alphanumeric bytes.
func splitNonAlnum(s string) []string {
	var out []string
	start := -1
	for i := 0; i < len(s); i++ {
		if isAlnum(s[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// ServiceTokens implements the tokenization of Algorithm 4: take all labels
// of the FQDN except the TLD and the SLD label, split each on
// non-alphanumeric characters, and generalize digit runs to 'N'. For
// "smtp2.mail.google.com" it returns ["smtpN", "mail"]. The result is nil
// when the FQDN has no labels beyond the SLD.
func ServiceTokens(fqdn string) []string {
	labels := SplitFQDN(fqdn)
	if len(labels) == 0 {
		return nil
	}
	sld := SLD(fqdn)
	drop := len(SplitFQDN(sld))
	if len(labels) <= drop {
		return nil
	}
	var toks []string
	for _, label := range labels[:len(labels)-drop] {
		for _, part := range splitNonAlnum(label) {
			toks = append(toks, GeneralizeDigits(part))
		}
	}
	return toks
}

// HostPrefix returns the FQDN with its SLD suffix removed, e.g.
// "media1.cdn.example.com" -> "media1.cdn". It returns "" when the FQDN is
// exactly its SLD.
func HostPrefix(fqdn string) string {
	labels := SplitFQDN(fqdn)
	drop := len(SplitFQDN(SLD(fqdn)))
	if len(labels) <= drop {
		return ""
	}
	return strings.Join(labels[:len(labels)-drop], ".")
}
