package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		only string
		want []string
	}{
		{"T2", []string{"T2"}},
		{" f4 ,T1", []string{"T1", "F4"}},
		{"A", []string{"A:clist", "A:multilabel", "A:tagscore"}},
		{"a:CLIST", []string{"A:clist"}},
		{"F13", []string{"F12/F13"}},
		{"F12,F12/F13", []string{"F12/F13"}},
	} {
		got, err := selectExperiments(tc.only)
		if err != nil {
			t.Fatalf("-only %q: %v", tc.only, err)
		}
		var ids []string
		for _, e := range got {
			ids = append(ids, e.ID)
		}
		if strings.Join(ids, ",") != strings.Join(tc.want, ",") {
			t.Errorf("-only %q selects %v, want %v", tc.only, ids, tc.want)
		}
	}
	if all, err := selectExperiments(""); err != nil || len(all) != len(experiments.All) {
		t.Errorf("-only \"\" selects %d experiments (err %v), want all %d", len(all), err, len(experiments.All))
	}
}

func TestSelectExperimentsUnknownID(t *testing.T) {
	_, err := selectExperiments("T1,T22")
	if err == nil {
		t.Fatal("-only T22 selected something")
	}
	for _, want := range []string{"T22", "valid ids:", "T1", "F12/F13", "A:tagscore"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
