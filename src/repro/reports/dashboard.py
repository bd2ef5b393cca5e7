"""The sweep-service dashboard: one self-contained HTML page.

Served verbatim at ``GET /dashboard``.  Zero dependencies on either
side: the page is a single string (no template engine, no static-file
directory) and the browser side is plain ``fetch`` + ``EventSource``
against the daemon's existing JSON/SSE routes:

* ``/healthz`` and ``/v1/jobs`` are polled for liveness and the job
  table,
* selecting a job subscribes to ``/v1/jobs/<id>/events`` for live
  progress (cells done and the full/recorded/replayed/cached mode
  mix),
* ``/v1/bench`` fills the cache card,
* ``/v1/reports`` links every report in every format.
"""

from __future__ import annotations

DASHBOARD_HTML = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>rampage sweep service</title>
<style>
  :root { --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
          --line: #e4e3df; --accent: #2a78d6; --ok: #1baf7a; --warn: #eda100; }
  @media (prefers-color-scheme: dark) {
    :root { --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7;
            --line: #3a3a38; --accent: #3987e5; --ok: #199e70; --warn: #c98500; }
  }
  body { font-family: system-ui, sans-serif; margin: 0; padding: 1.5rem;
         background: var(--surface); color: var(--ink); }
  h1 { font-size: 1.2rem; margin: 0 0 1rem; }
  h2 { font-size: 0.95rem; margin: 0 0 0.5rem; color: var(--ink-2); }
  .cards { display: flex; flex-wrap: wrap; gap: 1rem; }
  .card { border: 1px solid var(--line); border-radius: 8px; padding: 1rem;
          min-width: 16rem; flex: 1 1 16rem; }
  table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
  th, td { text-align: left; padding: 0.25rem 0.5rem;
           border-bottom: 1px solid var(--line); }
  td.num { text-align: right; font-variant-numeric: tabular-nums; }
  tr.job { cursor: pointer; }
  tr.job.selected { outline: 2px solid var(--accent); }
  .bar { height: 8px; background: var(--line); border-radius: 4px;
         overflow: hidden; margin: 0.4rem 0; }
  .bar > div { height: 100%; background: var(--accent); width: 0; }
  .modes span { display: inline-block; margin-right: 0.6rem;
                font-size: 0.8rem; color: var(--ink-2); }
  .muted { color: var(--ink-2); font-size: 0.8rem; }
  .pill { display: inline-block; padding: 0 0.5rem; border-radius: 999px;
          font-size: 0.75rem; border: 1px solid var(--line); }
  .pill.ok { color: var(--ok); } .pill.warn { color: var(--warn); }
  a { color: var(--accent); }
  ul.reports { margin: 0; padding-left: 1.1rem; }
  #log { font-family: ui-monospace, monospace; font-size: 0.75rem;
         max-height: 10rem; overflow-y: auto; white-space: pre-wrap; }
</style>
</head>
<body>
<h1>rampage sweep service
  <span id="health" class="pill">connecting&hellip;</span></h1>
<div class="cards">
  <div class="card">
    <h2>jobs</h2>
    <table><thead><tr><th>id</th><th>status</th><th>cells</th></tr></thead>
      <tbody id="jobs"><tr><td colspan="3" class="muted">none yet</td></tr>
    </tbody></table>
  </div>
  <div class="card">
    <h2>selected job</h2>
    <div id="job-title" class="muted">click a job to follow it live</div>
    <div class="bar"><div id="progress"></div></div>
    <div class="modes" id="modes"></div>
    <div id="log"></div>
  </div>
  <div class="card">
    <h2>cache</h2>
    <div class="muted" id="cache"></div>
  </div>
  <div class="card">
    <h2>reports</h2>
    <ul class="reports" id="reports"></ul>
  </div>
</div>
<script>
"use strict";
const $ = (id) => document.getElementById(id);
let selected = null, source = null;

async function getJSON(url) {
  const response = await fetch(url);
  if (!response.ok) throw new Error(url + " -> " + response.status);
  return response.json();
}

async function refreshHealth() {
  try {
    const health = await getJSON("/healthz");
    $("health").textContent = health.status +
      " (queue " + health.admission.active + "/" + health.admission.limit + ")";
    $("health").className = "pill " + (health.status === "ok" ? "ok" : "warn");
  } catch (err) {
    $("health").textContent = "unreachable";
    $("health").className = "pill warn";
  }
}

function jobRow(job) {
  const row = document.createElement("tr");
  row.className = "job" + (job.id === selected ? " selected" : "");
  row.innerHTML = "<td>" + job.id.slice(0, 10) + "&hellip;</td><td>" +
    job.status + "</td><td class='num'>" + job.done + "/" + job.total + "</td>";
  row.onclick = () => follow(job);
  return row;
}

async function refreshJobs() {
  try {
    const jobs = await getJSON("/v1/jobs");
    const body = $("jobs");
    body.replaceChildren();
    if (!jobs.length) {
      body.innerHTML = "<tr><td colspan='3' class='muted'>none yet</td></tr>";
      return;
    }
    jobs.slice().reverse().forEach((job) => body.appendChild(jobRow(job)));
  } catch (err) { /* next poll retries */ }
}

function showProgress(job) {
  const pct = job.total ? (100 * job.done / job.total) : 0;
  $("progress").style.width = pct.toFixed(1) + "%";
  $("job-title").textContent =
    job.id.slice(0, 16) + "… " + job.status + " " +
    job.done + "/" + job.total + " cells";
  const modes = $("modes");
  modes.replaceChildren();
  Object.entries(job.modes || {}).forEach(([mode, count]) => {
    const span = document.createElement("span");
    span.textContent = mode + ": " + count;
    modes.appendChild(span);
  });
}

function logLine(text) {
  const log = $("log");
  log.textContent += text + "\\n";
  log.scrollTop = log.scrollHeight;
}

function follow(job) {
  selected = job.id;
  if (source) source.close();
  $("log").textContent = "";
  showProgress(job);
  source = new EventSource("/v1/jobs/" + job.id + "/events");
  source.addEventListener("job", (event) =>
    showProgress(JSON.parse(event.data)));
  source.addEventListener("cell_completed", (event) => {
    const cell = JSON.parse(event.data);
    logLine("[" + cell.done + "/" + cell.total + "] " + cell.key +
      " mode=" + cell.mode);
    refreshJobs();
  });
  ["job_running", "job_completed", "job_failed"].forEach((name) =>
    source.addEventListener(name, (event) => {
      showProgress(JSON.parse(event.data));
      logLine(name);
      refreshJobs();
      if (name !== "job_running") source.close();
    }));
  refreshJobs();
}

async function refreshBench() {
  try {
    const cache = (await getJSON("/v1/bench")).cache;
    $("cache").textContent = cache.present
      ? cache.records + " records (" + cache.record_bytes + " bytes), " +
        cache.quarantined + " quarantined"
      : "no cache directory";
  } catch (err) { /* next poll retries */ }
}

async function listReports() {
  try {
    const index = await getJSON("/v1/reports");
    const list = $("reports");
    list.replaceChildren();
    index.reports.forEach((name) => {
      const item = document.createElement("li");
      item.innerHTML = "<a href='/v1/reports/" + name +
        "?format=html'>" + name + "</a> <span class='muted'>" +
        index.formats.map((format) =>
          "<a href='/v1/reports/" + name + "?format=" + format + "'>" +
          format + "</a>").join(" ") + "</span>";
      list.appendChild(item);
    });
  } catch (err) { /* static enough to skip retries */ }
}

refreshHealth(); refreshJobs(); refreshBench(); listReports();
setInterval(refreshHealth, 3000);
setInterval(refreshJobs, 3000);
setInterval(refreshBench, 10000);
</script>
</body>
</html>
"""
