package sdfio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sadf"
	"repro/internal/sdf"
)

// WriteSADFText serialises an FSM-SADF model in the native text format,
// an extension of the single-graph format with a scenario grouping
// directive and the FSM:
//
//	sadf <name>
//	scenario <name>
//	actor <name> <exec>
//	chan <src> <dst> <prod> <cons> <initial>
//	state <name> <scenario>
//	trans <from> <to>
//	initial <state>
//
// actor and chan lines belong to the most recent scenario directive.
// Blank lines and lines starting with '#' are comments on input.
func WriteSADFText(w io.Writer, m *sadf.Model) error {
	_, err := w.Write(AppendSADFText(nil, m))
	return err
}

// SADFTextString renders m in the native text format.
func SADFTextString(m *sadf.Model) string {
	return string(AppendSADFText(nil, m))
}

// AppendSADFText appends m's native text rendering to b: the bytes
// WriteSADFText writes, built with strconv appends into one buffer.
func AppendSADFText(b []byte, m *sadf.Model) []byte {
	line := func(directive string, fields ...string) {
		b = append(b, directive...)
		for _, f := range fields {
			b = append(append(b, ' '), f...)
		}
		b = append(b, '\n')
	}
	line("sadf", m.Name)
	for _, s := range m.Scenarios {
		line("scenario", s.Name)
		for _, a := range s.Graph.Actors() {
			b = strconv.AppendInt(append(append(append(b, "actor "...), a.Name...), ' '), a.Exec, 10)
			b = append(b, '\n')
		}
		for _, c := range s.Graph.Channels() {
			b = append(append(append(b, "chan "...), s.Graph.Actor(c.Src).Name...), ' ')
			b = append(append(b, s.Graph.Actor(c.Dst).Name...), ' ')
			b = append(strconv.AppendInt(b, int64(c.Prod), 10), ' ')
			b = append(strconv.AppendInt(b, int64(c.Cons), 10), ' ')
			b = append(strconv.AppendInt(b, int64(c.Initial), 10), '\n')
		}
	}
	for _, st := range m.States {
		line("state", st.Name, st.Scenario)
	}
	for _, tr := range m.Transitions {
		line("trans", tr.From, tr.To)
	}
	line("initial", m.Initial)
	return b
}

// ReadSADFText parses the native FSM-SADF text format. Accepted models
// always satisfy sadf.Model.Validate: every cross-reference (state →
// scenario, transition → state, initial → state) resolves, scenarios
// share one token signature, and every state is reachable.
func ReadSADFText(r io.Reader) (*sadf.Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	m := &sadf.Model{Name: "unnamed"}
	var cur *sdf.Graph
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "sadf":
			if len(fields) != 2 {
				return nil, fmt.Errorf("sdfio: line %d: want 'sadf <name>'", lineNo)
			}
			m.Name = fields[1]
		case "scenario":
			if len(fields) != 2 {
				return nil, fmt.Errorf("sdfio: line %d: want 'scenario <name>'", lineNo)
			}
			cur = sdf.NewGraph(fields[1])
			m.Scenarios = append(m.Scenarios, sadf.Scenario{Name: fields[1], Graph: cur})
		case "actor":
			if cur == nil {
				return nil, fmt.Errorf("sdfio: line %d: actor before any scenario directive", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("sdfio: line %d: want 'actor <name> <exec>'", lineNo)
			}
			exec, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdfio: line %d: bad execution time %q", lineNo, fields[2])
			}
			if _, err := cur.AddActor(fields[1], exec); err != nil {
				return nil, fmt.Errorf("sdfio: line %d: %w", lineNo, err)
			}
		case "chan":
			if cur == nil {
				return nil, fmt.Errorf("sdfio: line %d: chan before any scenario directive", lineNo)
			}
			if len(fields) != 6 {
				return nil, fmt.Errorf("sdfio: line %d: want 'chan <src> <dst> <prod> <cons> <initial>'", lineNo)
			}
			nums := make([]int, 3)
			for i, f := range fields[3:] {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("sdfio: line %d: bad number %q", lineNo, f)
				}
				nums[i] = v
			}
			if _, err := cur.AddChannelByName(fields[1], fields[2], nums[0], nums[1], nums[2]); err != nil {
				return nil, fmt.Errorf("sdfio: line %d: %w", lineNo, err)
			}
		case "state":
			if len(fields) != 3 {
				return nil, fmt.Errorf("sdfio: line %d: want 'state <name> <scenario>'", lineNo)
			}
			m.States = append(m.States, sadf.State{Name: fields[1], Scenario: fields[2]})
		case "trans":
			if len(fields) != 3 {
				return nil, fmt.Errorf("sdfio: line %d: want 'trans <from> <to>'", lineNo)
			}
			m.Transitions = append(m.Transitions, sadf.Transition{From: fields[1], To: fields[2]})
		case "initial":
			if len(fields) != 2 {
				return nil, fmt.Errorf("sdfio: line %d: want 'initial <state>'", lineNo)
			}
			if m.Initial != "" {
				return nil, fmt.Errorf("sdfio: line %d: duplicate initial directive", lineNo)
			}
			m.Initial = fields[1]
		default:
			return nil, fmt.Errorf("sdfio: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sdfio: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseSADFText parses the native FSM-SADF text format from a string.
func ParseSADFText(s string) (*sadf.Model, error) {
	return ReadSADFText(strings.NewReader(s))
}

// jsonSADF is the JSON wire form of an FSM-SADF model. Scenario graphs
// reuse the single-graph JSON shape.
type jsonSADF struct {
	Name        string           `json:"name"`
	Scenarios   []jsonScenario   `json:"scenarios"`
	States      []jsonState      `json:"states"`
	Transitions []jsonTransition `json:"transitions"`
	Initial     string           `json:"initial"`
}

type jsonScenario struct {
	Name  string    `json:"name"`
	Graph jsonGraph `json:"graph"`
}

type jsonState struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
}

type jsonTransition struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// WriteSADFJSON serialises m as JSON.
func WriteSADFJSON(w io.Writer, m *sadf.Model) error {
	doc := jsonSADF{Name: m.Name, Initial: m.Initial}
	for _, s := range m.Scenarios {
		jg := jsonGraph{Name: s.Graph.Name()}
		for _, a := range s.Graph.Actors() {
			jg.Actors = append(jg.Actors, jsonActor{Name: a.Name, Exec: a.Exec})
		}
		for _, c := range s.Graph.Channels() {
			jg.Channels = append(jg.Channels, jsonChannel{
				Src: s.Graph.Actor(c.Src).Name, Dst: s.Graph.Actor(c.Dst).Name,
				Prod: c.Prod, Cons: c.Cons, Initial: c.Initial,
			})
		}
		doc.Scenarios = append(doc.Scenarios, jsonScenario{Name: s.Name, Graph: jg})
	}
	for _, st := range m.States {
		doc.States = append(doc.States, jsonState{Name: st.Name, Scenario: st.Scenario})
	}
	for _, tr := range m.Transitions {
		doc.Transitions = append(doc.Transitions, jsonTransition{From: tr.From, To: tr.To})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("sdfio: sadf json: %w", err)
	}
	return nil
}

// ReadSADFJSON parses the JSON wire form of an FSM-SADF model. Like the
// text reader, accepted models always satisfy sadf.Model.Validate.
func ReadSADFJSON(r io.Reader) (*sadf.Model, error) {
	var doc jsonSADF
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("sdfio: sadf json: %w", err)
	}
	name := doc.Name
	if name == "" {
		name = "unnamed"
	}
	m := &sadf.Model{Name: name, Initial: doc.Initial}
	for _, s := range doc.Scenarios {
		gname := s.Graph.Name
		if gname == "" {
			gname = s.Name
		}
		g := sdf.NewGraph(gname)
		for _, a := range s.Graph.Actors {
			if _, err := g.AddActor(a.Name, a.Exec); err != nil {
				return nil, fmt.Errorf("sdfio: sadf json: scenario %q: %w", s.Name, err)
			}
		}
		for _, c := range s.Graph.Channels {
			if _, err := g.AddChannelByName(c.Src, c.Dst, c.Prod, c.Cons, c.Initial); err != nil {
				return nil, fmt.Errorf("sdfio: sadf json: scenario %q: %w", s.Name, err)
			}
		}
		m.Scenarios = append(m.Scenarios, sadf.Scenario{Name: s.Name, Graph: g})
	}
	for _, st := range doc.States {
		m.States = append(m.States, sadf.State{Name: st.Name, Scenario: st.Scenario})
	}
	for _, tr := range doc.Transitions {
		m.Transitions = append(m.Transitions, sadf.Transition{From: tr.From, To: tr.To})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
