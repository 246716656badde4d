package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		name                string
		nodeID, base, peers string
		want                map[string]string
		wantErr             string // substring; "" = no error
	}{
		{name: "not a cluster member"},
		{name: "base without id", base: "http://a:1", wantErr: "require -node-id"},
		{name: "peers without id", peers: "b=http://b:1", wantErr: "require -node-id"},
		{name: "id without base", nodeID: "a", wantErr: "requires -node-base"},
		{name: "dot in id", nodeID: "a.b", base: "http://a:1", wantErr: "must not contain"},
		{name: "slash in id", nodeID: "a/b", base: "http://a:1", wantErr: "must not contain"},
		{name: "alone", nodeID: "a", base: "http://a:1/", want: map[string]string{"a": "http://a:1"}},
		{
			name: "peers, spaces, empty pieces, trailing slashes", nodeID: "a", base: "http://a:1",
			peers: " b = http://b:2/ ,, c=http://c:3",
			want:  map[string]string{"a": "http://a:1", "b": "http://b:2", "c": "http://c:3"},
		},
		{
			// Operators paste the router's -nodes list, self included.
			name: "self listed among the peers", nodeID: "a", base: "http://a:1",
			peers: "a=http://a:1,b=http://b:2",
			want:  map[string]string{"a": "http://a:1", "b": "http://b:2"},
		},
		{name: "peer twice", nodeID: "a", base: "http://a:1", peers: "b=http://b:2,b=http://b:3", wantErr: "twice"},
		{name: "no equals sign", nodeID: "a", base: "http://a:1", peers: "b", wantErr: "not id=baseURL"},
		{name: "empty id", nodeID: "a", base: "http://a:1", peers: "=http://b:2", wantErr: "not id=baseURL"},
		{name: "empty base", nodeID: "a", base: "http://a:1", peers: "b=", wantErr: "not id=baseURL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parsePeers(tc.nodeID, tc.base, tc.peers)
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
