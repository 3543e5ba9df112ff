package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/wflog"
)

// generatedLogSHA256 pins the bytes of the log of one run per workflow
// class and run class, each workflow generated at seed 36. The
// generator, the executor, Run.ToLog and wflog.Write all shape those bytes,
// and every experiment and benchmark corpus is made of them, so a change to
// any of the four that moves one byte fails here. A change meant to move
// bytes replaces the constants and says why.
var generatedLogSHA256 = map[string]string{
	"Class1/small":  "12d9b0d8ff9494dba5a81138b67e399957e8e7b58dfbec904a13ff8970354689",
	"Class1/medium": "6d81129ab1677bb21bed498a3a16494e401a3510b29c4a7b837cf921c2e9fb41",
	"Class1/large":  "7536148ad6bc7dfaa1dba85c68c05187ccf08cb2c647412541fd01219887f588",
	"Class2/small":  "747adcc633eb6feae8c8292dd744b06a69510b0ad134543c7af96ef3ef9c00e8",
	"Class2/medium": "6a9131f1d4b8939dbc5b5d6ac9b8807749adc160935cad8c0f76a962bb2beafa",
	"Class2/large":  "e558022172bceb43590fceed621413b35e34691667579afff40e87972c5adea9",
	"Class3/small":  "8284468d45f5faa354b60730a2404c0738c174984a6365aa374062cd3093924d",
	"Class3/medium": "435a84738a8510d4646183e3393fd091baee34defae9a32649ee541a9fd06968",
	"Class3/large":  "b9af9bbbd12000f451e13d13354836e4a0d393cd047654aef83af68ce7f6da25",
	"Class4/small":  "ec5cf701bbd37eeaf858e396be7c08aba9fbb8a3f6fc1c9962a04385dacfc6ef",
	"Class4/medium": "905be5976faaebe067b14b14bc485afe4c44a84fc914eea0d2117ade33f68ac1",
	"Class4/large":  "f76a47d929a4b2c052fafd54a7425f2a718bf9cdd3104ec1c032e4c0df238edf",
}

func TestGeneratedLogsUnchanged(t *testing.T) {
	var buf bytes.Buffer
	for _, class := range Classes() {
		g := NewGenerator(36)
		s := g.Workflow(class, class.Name+"-golden")
		for _, rc := range RunClasses() {
			name := class.Name + "/" + rc.Name
			_, events, err := g.Run(s, rc, name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			buf.Reset()
			if err := wflog.Write(&buf, events); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != generatedLogSHA256[name] {
				t.Errorf("%s: log of %d events, %d bytes, has sha256 %s, want %s", name, len(events), buf.Len(), got, generatedLogSHA256[name])
			}
		}
	}
}
