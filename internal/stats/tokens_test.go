package stats

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSLD(t *testing.T) {
	cases := []struct{ in, want string }{
		{"www.example.com", "example.com"},
		{"example.com", "example.com"},
		{"smtp2.mail.google.com", "google.com"},
		{"com", "com"},
		{"", ""},
		{"WWW.Example.COM.", "example.com"},
		{"news.bbc.co.uk", "bbc.co.uk"},
		{"co.uk", "co.uk"},
		{"a.b.c.d.e.zynga.com", "zynga.com"},
	}
	for _, tc := range cases {
		if got := SLD(tc.in); got != tc.want {
			t.Errorf("SLD(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestGeneralizeDigits(t *testing.T) {
	cases := []struct{ in, want string }{
		{"smtp2", "smtpN"},
		{"smtp22", "smtpN"},
		{"a1b2c3", "aNbNcN"},
		{"123", "N"},
		{"abc", "abc"},
		{"", ""},
		{"media42cdn7", "mediaNcdnN"},
	}
	for _, tc := range cases {
		if got := GeneralizeDigits(tc.in); got != tc.want {
			t.Errorf("GeneralizeDigits(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestServiceTokensPaperExample(t *testing.T) {
	// The paper's worked example: smtp2.mail.google.com -> {smtpN, mail}.
	got := ServiceTokens("smtp2.mail.google.com")
	want := []string{"smtpN", "mail"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ServiceTokens = %v, want %v", got, want)
	}
}

func TestServiceTokensSeparators(t *testing.T) {
	got := ServiceTokens("fb_client_7.stats.zynga.com")
	want := []string{"fb", "client", "N", "stats"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ServiceTokens = %v, want %v", got, want)
	}
}

func TestServiceTokensBareSLD(t *testing.T) {
	if toks := ServiceTokens("google.com"); toks != nil {
		t.Fatalf("bare SLD should have no tokens, got %v", toks)
	}
	if toks := ServiceTokens("com"); toks != nil {
		t.Fatalf("bare TLD should have no tokens, got %v", toks)
	}
	if toks := ServiceTokens(""); toks != nil {
		t.Fatalf("empty name should have no tokens, got %v", toks)
	}
}

func TestServiceTokensMultiTLD(t *testing.T) {
	got := ServiceTokens("mail.bbc.co.uk")
	want := []string{"mail"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ServiceTokens = %v, want %v", got, want)
	}
}

func TestHostPrefix(t *testing.T) {
	cases := []struct{ in, want string }{
		{"media1.cdn.example.com", "media1.cdn"},
		{"example.com", ""},
		{"www.example.com", "www"},
	}
	for _, tc := range cases {
		if got := HostPrefix(tc.in); got != tc.want {
			t.Errorf("HostPrefix(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSplitFQDN(t *testing.T) {
	if got := SplitFQDN("A.B.c."); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("SplitFQDN = %v", got)
	}
	if got := SplitFQDN(""); got != nil {
		t.Fatalf("SplitFQDN(\"\") = %v", got)
	}
}

func TestQuickSLDIsSuffix(t *testing.T) {
	// Property: SLD of a well-formed lowercase name is always a suffix of it.
	f := func(a, b, c uint8) bool {
		name := label(a) + "." + label(b) + "." + label(c) + ".com"
		return strings.HasSuffix(name, SLD(name))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGeneralizeDigitsNoDigits(t *testing.T) {
	f := func(s string) bool {
		return !strings.ContainsAny(GeneralizeDigits(s), "0123456789")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGeneralizeDigitsIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := GeneralizeDigits(s)
		return GeneralizeDigits(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// label maps a byte to a small non-empty DNS label for property tests.
func label(b uint8) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	return string(alpha[int(b)%len(alpha)]) + string(alpha[int(b/26)%len(alpha)])
}
