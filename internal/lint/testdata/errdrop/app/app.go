// Fixture: true positives and allowed patterns for the errdrop
// analyzer in non-test code.
package app

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

func encode(v interface{}) {
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(v)     // want `silently discarded`
	_ = enc.Encode(v) // want `assigned to _`
}

func read(name string) string {
	f, _ := os.Open(name)     // want `assigned to _`
	defer f.Close()           // allowed: deferred cleanup is exempt
	b, _ := os.ReadFile(name) // want `assigned to _`
	return string(b)
}

// Allowed: the fmt print family and in-memory writers are documented
// never to fail.
func report(buf *bytes.Buffer) string {
	fmt.Println("ok")
	fmt.Fprintf(os.Stderr, "done\n")
	buf.WriteString("x")
	var sb strings.Builder
	sb.WriteString("y")
	return sb.String()
}

// Allowed: handled errors are the happy path.
func handled(v interface{}) error {
	if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
		return err
	}
	return nil
}

func suppressed(v interface{}) {
	enc := json.NewEncoder(os.Stdout)
	//lint:ignore errdrop fixture demonstrates suppression
	enc.Encode(v)
}
