package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/warehouse"
	"repro/zoom/client"
)

// oracle answers queries in process, over the whole unsharded corpus, to
// check what the cluster answered over the wire.
type oracle struct {
	wh    *warehouse.Warehouse
	eng   *provenance.Engine
	views map[string]*core.UserView // relevant-list views, by spec and list
}

func newOracle(wh *warehouse.Warehouse) *oracle {
	return &oracle{wh: wh, eng: provenance.NewEngine(wh), views: make(map[string]*core.UserView)}
}

// view resolves a request's view the way the server does: a named view,
// the view built from a relevant list, or UAdmin.
func (o *oracle) view(q *client.QueryRequest) (*core.UserView, error) {
	r, err := o.wh.Run(q.Run)
	if err != nil {
		return nil, err
	}
	if q.View != "" {
		return o.wh.View(r.SpecName(), q.View)
	}
	rel := append([]string(nil), q.Relevant...)
	sort.Strings(rel)
	key := r.SpecName() + "\x00" + strings.Join(rel, "\x00")
	if v := o.views[key]; v != nil {
		return v, nil
	}
	sp, err := o.wh.Spec(r.SpecName())
	if err != nil {
		return nil, err
	}
	v := core.UAdmin(sp)
	if len(rel) > 0 {
		if v, err = core.BuildRelevant(sp, rel); err != nil {
			return nil, err
		}
	}
	o.views[key] = v
	return v, nil
}

func wireExecution(x *composite.Execution) client.Execution {
	return client.Execution{ID: x.ID, Composite: x.Composite, Steps: x.Steps, Inputs: x.Inputs, Outputs: x.Outputs}
}

// wireResult shapes an engine result as the server's response carries it.
func wireResult(res *provenance.Result) *client.Result {
	out := &client.Result{Root: res.Root, External: res.External, Metadata: res.Metadata,
		Executions: []client.Execution{}, Data: res.Data, Edges: []client.Edge{}}
	for _, x := range res.Executions {
		out.Executions = append(out.Executions, wireExecution(x))
	}
	for _, e := range res.Edges {
		out.Edges = append(out.Edges, client.Edge{From: e.From, To: e.To, Data: e.Data})
	}
	return out
}

// answer computes what the response to q must carry: its result for the
// deep and derived kinds, its execution for the immediate kind.
func (o *oracle) answer(q *client.QueryRequest) (*client.Result, *client.Execution, error) {
	v, err := o.view(q)
	if err != nil {
		return nil, nil, err
	}
	switch q.Kind {
	case "", "deep":
		res, err := o.eng.DeepProvenanceCtx(context.Background(), q.Run, v, q.Data)
		if err != nil {
			return nil, nil, err
		}
		return wireResult(res), nil, nil
	case "derived":
		res, err := o.eng.DeepDerivation(q.Run, v, q.Data)
		if err != nil {
			return nil, nil, err
		}
		return wireResult(res), nil, nil
	case "immediate":
		x, err := o.eng.ImmediateProvenance(q.Run, v, q.Data)
		if err != nil || x == nil {
			return nil, nil, err
		}
		wx := wireExecution(x)
		return nil, &wx, nil
	}
	return nil, nil, fmt.Errorf("oracle: unknown kind %q", q.Kind)
}

// check decodes a response body and compares its result and execution
// with the in-process answer.
func (o *oracle) check(q *client.QueryRequest, body []byte) error {
	var got client.QueryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("oracle: decode response to %+v: %w", *q, err)
	}
	wantRes, wantExec, err := o.answer(q)
	if err != nil {
		return fmt.Errorf("oracle: answer %+v in process: %w", *q, err)
	}
	if !sameJSON(got.Result, wantRes) {
		return fmt.Errorf("oracle: result of %+v differs from the in-process answer", *q)
	}
	if !sameJSON(got.Execution, wantExec) {
		return fmt.Errorf("oracle: execution of %+v differs from the in-process answer", *q)
	}
	return nil
}

// sameJSON compares two values by their JSON encoding, which is the level
// at which the wire and the in-process answer are meant to agree.
func sameJSON(a, b any) bool {
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}
