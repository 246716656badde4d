package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseMembers(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     map[string]string
		wantErr  string // substring; "" = no error
	}{
		{name: "empty", in: "", wantErr: "at least one"},
		{name: "blank", in: "  ", wantErr: "at least one"},
		{name: "only separators", in: " , ,", wantErr: "at least one"},
		{name: "one", in: "a=http://a:1", want: map[string]string{"a": "http://a:1"}},
		{
			name: "spaces and empty pieces", in: " a = http://a:1 ,, b=http://b:2/",
			// The trailing slash stays: NewRemoteRouter trims it.
			want: map[string]string{"a": "http://a:1", "b": "http://b:2/"},
		},
		{name: "duplicate", in: "a=http://a:1,a=http://a:2", wantErr: "duplicate"},
		{name: "no equals sign", in: "a", wantErr: "not id=baseURL"},
		{name: "empty id", in: "=http://a:1", wantErr: "not id=baseURL"},
		{name: "empty base", in: "a=", wantErr: "not id=baseURL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseMembers(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}
