package gateway

// client.go is the typed client for the gateway's REST API, used by
// cmd/faasdev-cli (the role of the paper artifact's faasdev-cli tool).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/telemetry"
)

// Client talks to a running infless-gateway.
type Client struct {
	// BaseURL is the gateway root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP overrides the transport (default: 30s-timeout client).
	HTTP *http.Client
}

// NewClient creates a client for the given gateway base URL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError decodes the gateway's {"error": ...} body into a Go error.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		return fmt.Errorf("gateway: %s (%d)", body.Error, resp.StatusCode)
	}
	return fmt.Errorf("gateway: unexpected status %d", resp.StatusCode)
}

// Deploy registers one function.
func (c *Client) Deploy(req DeployRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.http().Post(c.BaseURL+"/system/functions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return apiError(resp)
	}
	return resp.Body.Close()
}

// DeployTemplate registers every function of an INFless template.
func (c *Client) DeployTemplate(template string) ([]string, error) {
	resp, err := c.http().Post(c.BaseURL+"/system/functions", "text/yaml", strings.NewReader(template))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusCreated {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out struct {
		Deployed []string `json:"deployed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Deployed, nil
}

// List returns the deployed functions.
func (c *Client) List() ([]core.RegistryEntry, error) {
	resp, err := c.http().Get(c.BaseURL + "/system/functions")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out []core.RegistryEntry
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Delete undeploys a function.
func (c *Client) Delete(name string) error {
	req, err := http.NewRequest(http.MethodDelete, c.BaseURL+"/system/functions/"+url.PathEscape(name), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return apiError(resp)
	}
	return resp.Body.Close()
}

// Invoke calls a function once and returns the invocation report.
func (c *Client) Invoke(name string) (InvokeResponse, error) {
	resp, err := c.http().Post(c.BaseURL+"/function/"+url.PathEscape(name), "application/json", nil)
	if err != nil {
		return InvokeResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return InvokeResponse{}, apiError(resp)
	}
	defer resp.Body.Close()
	var out InvokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return InvokeResponse{}, err
	}
	return out, nil
}

// Metrics returns the gateway's telemetry snapshot: per-function latency
// quantiles, SLO attainment, rolling-window rates, and cluster resource
// usage, all rendered by the gateway's telemetry.Collector.
func (c *Client) Metrics() (telemetry.Snapshot, error) {
	resp, err := c.http().Get(c.BaseURL + "/system/metrics")
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return telemetry.Snapshot{}, apiError(resp)
	}
	defer resp.Body.Close()
	var out telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return telemetry.Snapshot{}, err
	}
	return out, nil
}

// MetricsPrometheus returns the raw Prometheus text exposition from
// /system/metrics?format=prometheus.
func (c *Client) MetricsPrometheus() (string, error) {
	resp, err := c.http().Get(c.BaseURL + "/system/metrics?format=prometheus")
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(data), nil
}
