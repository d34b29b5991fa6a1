package analysis

import (
	"os"
	"strings"
	"testing"
)

// TestSchemaDriftGate runs the apicontract analyzer over the package
// whose structs serialize to dumped artifacts — flight NDJSON events.
// Adding a json tag to a //ppatc:schema struct without documenting it
// in DATA_SCHEMA.md fails here, so the schema file cannot drift
// silently.
func TestSchemaDriftGate(t *testing.T) {
	pkgs, err := Load("../..", "./internal/obs/flight")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, []*Analyzer{APIContract}) {
		t.Errorf("schema drift: %s", d)
	}
}

// TestSchemaStructsAreMarked guards the gate itself: if the marker
// comments were dropped, TestSchemaDriftGate would pass while checking
// nothing.
func TestSchemaStructsAreMarked(t *testing.T) {
	for path, want := range map[string]int{
		"../obs/flight/flight.go": 1, // Event
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if got := strings.Count(string(data), schemaMarker); got != want {
			t.Errorf("%s carries %d %s markers, want %d", path, got, schemaMarker, want)
		}
	}
}

// TestDocumentedSchemaTags pins the DATA_SCHEMA.md token extraction:
// known flight field names parse out as documented, and a
// name absent from the document stays undocumented.
func TestDocumentedSchemaTags(t *testing.T) {
	tags, err := documentedSchemaTags(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seq", "compute_ns", "queue_wait_ns", "request_id", "pool_depth", "admission_class"} {
		if !tags[want] {
			t.Errorf("documented tag %q not extracted from DATA_SCHEMA.md", want)
		}
	}
	if tags["zz_not_documented"] {
		t.Error("zz_not_documented reported as documented; the fixture's negative case is dead")
	}
}
