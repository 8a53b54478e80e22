package prof

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	"strings"
)

// Handler serves the incident-bundle ring (mount at /debug/incidents):
//
//	GET /debug/incidents               HTML index of retained bundles
//	GET /debug/incidents?id=<id>       one bundle as tar.gz
//	GET /debug/incidents?format=json   the bundle index as JSON
func (c *Capturer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch {
		case req.URL.Query().Get("id") != "":
			b := c.Find(req.URL.Query().Get("id"))
			if b == nil {
				http.Error(w, "incident not found (evicted or never captured)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/gzip")
			w.Header().Set("Content-Disposition",
				fmt.Sprintf("attachment; filename=%s.tar.gz", b.ID))
			w.Write(b.Data)
		case req.URL.Query().Get("format") == "json":
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(c.Bundles())
		default:
			c.serveIndex(w)
		}
	})
}

// serveIndex renders the bundle table, newest first.
func (c *Capturer) serveIndex(w http.ResponseWriter) {
	bundles := c.Bundles()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<html><head><title>incidents</title></head><body>\n<h1>Incident bundles</h1>\n")
	fmt.Fprintf(&b, "<p>%d retained (<a href=\"?format=json\">json</a>); "+
		"POST /debug/incident triggers a manual capture</p>\n", len(bundles))
	b.WriteString("<table border=1 cellpadding=4>\n" +
		"<tr><th>id</th><th>reason</th><th>detail</th><th>time</th><th>bytes</th><th>entries</th></tr>\n")
	for _, bd := range bundles {
		fmt.Fprintf(&b, "<tr><td><a href=\"?id=%s\"><code>%s</code></a></td>"+
			"<td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td></tr>\n",
			bd.ID, bd.ID, bd.Reason, html.EscapeString(bd.Detail),
			bd.Time.UTC().Format("2006-01-02T15:04:05Z"), bd.Bytes, len(bd.Entries))
	}
	b.WriteString("</table></body></html>\n")
	io.WriteString(w, b.String())
}

// TriggerHandler serves the manual trigger (mount at /debug/incident):
// POST assembles a bundle with reason "manual" (an optional ?detail= or
// small text body becomes the manifest detail) and answers 202 with the
// bundle's JSON, or 429 when the trigger was suppressed by the rate
// limiter or dedup window. Non-POST methods get 405 so a stray crawler
// cannot burn capture budget.
func (c *Capturer) TriggerHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		detail := req.URL.Query().Get("detail")
		if detail == "" && req.Body != nil {
			body, _ := io.ReadAll(io.LimitReader(req.Body, 1024))
			detail = strings.TrimSpace(string(body))
		}
		b, ok := c.Trigger(TriggerManual, detail)
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{"suppressed": true})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(b)
	})
}
