package obs

// DashboardHTML returns the self-contained live dashboard page, for hosts
// that mount it somewhere other than the local -serve root (the service
// serves it at /jobs/{id}/).
func DashboardHTML() string { return dashboardHTML }

// dashboardHTML is the self-contained live dashboard served at /. It polls
// snapshot and series (relative URLs, so the page works both at the local
// -serve root and under the service's /jobs/{id}/ prefix) once a second
// and renders the per-region cycle breakdown (stacked bars over a fixed
// category order, with a legend and a table view) and the per-array×node
// remote-miss heat map (single-hue sequential ramp). All styling is inline
// so the page works with no other assets; colors follow the repo's chart
// palette with a dark variant keyed to prefers-color-scheme.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>dsm live run</title>
<style>
  :root {
    color-scheme: light;
    --surface-1: #fcfcfb;
    --page: #f9f9f7;
    --text-primary: #0b0b0b;
    --text-secondary: #52514e;
    --text-muted: #898781;
    --grid: #e1e0d9;
    --cat-compute: #2a78d6;
    --cat-remote:  #eb6834;
    --cat-local:   #1baf7a;
    --cat-tlb:     #eda100;
    --cat-bwq:     #e87ba4;
    --cat-barrier: #008300;
    --cat-redist:  #4a3aa7;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --page: #0d0d0d;
      --text-primary: #ffffff;
      --text-secondary: #c3c2b7;
      --text-muted: #898781;
      --grid: #2c2c2a;
      --cat-compute: #3987e5;
      --cat-remote:  #d95926;
      --cat-local:   #199e70;
      --cat-tlb:     #c98500;
      --cat-bwq:     #d55181;
      --cat-barrier: #008300;
      --cat-redist:  #9085e9;
    }
  }
  body { margin: 0; padding: 24px; background: var(--page); color: var(--text-primary);
         font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
  h1 { font-size: 18px; margin: 0 0 4px; }
  h2 { font-size: 14px; margin: 24px 0 8px; color: var(--text-secondary); font-weight: 600; }
  .meta { color: var(--text-secondary); margin-bottom: 16px; }
  .meta b { color: var(--text-primary); font-weight: 600; }
  .card { background: var(--surface-1); border: 1px solid var(--grid); border-radius: 8px;
          padding: 16px; margin-bottom: 16px; }
  .legend { display: flex; flex-wrap: wrap; gap: 12px; margin: 8px 0 12px;
            color: var(--text-secondary); font-size: 12px; }
  .legend span { display: inline-flex; align-items: center; gap: 5px; }
  .chip { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
  .row { margin: 6px 0; }
  .rname { font-size: 12px; color: var(--text-secondary); margin-bottom: 2px; }
  .bar { display: flex; height: 16px; border-radius: 4px; overflow: hidden; gap: 2px;
         background: var(--surface-1); }
  .bar div { height: 100%; }
  table { border-collapse: collapse; font-variant-numeric: tabular-nums; width: 100%;
          font-size: 12px; }
  th, td { text-align: right; padding: 3px 8px; border-bottom: 1px solid var(--grid);
           color: var(--text-primary); }
  th { color: var(--text-muted); font-weight: 500; }
  th:first-child, td:first-child { text-align: left; }
  .hm td.cell { min-width: 52px; }
  .spark { display: block; }
  .err { color: var(--text-secondary); }
</style>
</head>
<body>
<h1>dsm live run</h1>
<div class="meta" id="meta">connecting&#8230;</div>

<div class="card">
  <h2 style="margin-top:0">Remote L2 misses per sample</h2>
  <svg id="spark" class="spark" width="640" height="60" viewBox="0 0 640 60"
       preserveAspectRatio="none" role="img" aria-label="remote misses per sample"></svg>
  <div class="meta" id="sparkmax" style="margin:4px 0 0;font-size:12px"></div>
</div>

<div class="card">
  <h2 style="margin-top:0">Region cycle breakdown</h2>
  <div class="legend" id="legend"></div>
  <div id="regions"></div>
  <h2>Values (aggregate cycles)</h2>
  <div style="overflow-x:auto"><table id="rtable"></table></div>
</div>

<div class="card">
  <h2 style="margin-top:0">Array &#215; node remote-miss heat</h2>
  <div style="overflow-x:auto"><table class="hm" id="heat"></table></div>
</div>

<script>
"use strict";
// Fixed category order; slot assignment never changes with the data.
var CATS = [
  {key: "compute_cyc",     name: "compute",  v: "--cat-compute"},
  {key: "remote_miss_cyc", name: "remote",   v: "--cat-remote"},
  {key: "local_miss_cyc",  name: "local",    v: "--cat-local"},
  {key: "tlb_cyc",         name: "tlb",      v: "--cat-tlb"},
  {key: "bw_wait_cyc",     name: "bw queue", v: "--cat-bwq"},
  {key: "barrier_cyc",     name: "barrier",  v: "--cat-barrier"},
  {key: "redist_cyc",      name: "redist",   v: "--cat-redist"}
];
// Sequential blue ramp, light to dark (near zero recedes to the surface).
var RAMP = ["#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5", "#256abf", "#184f95", "#0d366b"];

function fmt(n) { return (n === undefined || n === null) ? "0" : n.toLocaleString("en-US"); }
function el(tag, cls) { var e = document.createElement(tag); if (cls) e.className = cls; return e; }

var legend = document.getElementById("legend");
CATS.forEach(function (c) {
  var s = el("span"), chip = el("span", "chip");
  chip.style.background = "var(" + c.v + ")";
  s.appendChild(chip);
  s.appendChild(document.createTextNode(c.name));
  legend.appendChild(s);
});

function renderMeta(snap) {
  document.getElementById("meta").innerHTML =
    "<b>" + snap.machine + "</b> &#183; " + snap.procs + " procs / " + snap.nodes +
    " nodes &#183; clock <b>" + fmt(snap.clock) + "</b> cycles &#183; " +
    fmt(snap.samples) + " samples &#183; " +
    (snap.done ? "<b>finished</b>" : "running");
}

function renderRegions(snap) {
  var regions = (snap.summary && snap.summary.regions) || [];
  var box = document.getElementById("regions");
  box.textContent = "";
  var max = 1;
  regions.forEach(function (r) { if (r.cycles > max) max = r.cycles; });
  regions.forEach(function (r) {
    var row = el("div", "row"), name = el("div", "rname"), bar = el("div", "bar");
    name.textContent = r.name;
    bar.style.width = Math.max(2, 100 * r.cycles / max) + "%";
    CATS.forEach(function (c) {
      var v = r[c.key] || 0;
      if (v <= 0 || !r.cycles) return;
      var seg = el("div");
      seg.style.flex = String(v);
      seg.style.background = "var(" + c.v + ")";
      seg.title = r.name + " &#183; " + c.name + ": " + fmt(v) + " cyc";
      bar.appendChild(seg);
    });
    row.appendChild(name);
    row.appendChild(bar);
    box.appendChild(row);
  });

  var t = document.getElementById("rtable");
  var h = "<tr><th>region</th><th>cycles</th>";
  CATS.forEach(function (c) { h += "<th>" + c.name + "</th>"; });
  h += "<th>tlb %</th></tr>";
  regions.forEach(function (r) {
    h += "<tr><td>" + r.name + "</td><td>" + fmt(r.cycles) + "</td>";
    CATS.forEach(function (c) { h += "<td>" + fmt(r[c.key] || 0) + "</td>"; });
    h += "<td>" + (100 * (r.tlb_frac || 0)).toFixed(1) + "</td></tr>";
  });
  t.innerHTML = h;
}

function renderHeat(snap) {
  var arrays = (snap.summary && snap.summary.arrays) || [];
  var t = document.getElementById("heat");
  if (!arrays.length) { t.innerHTML = "<tr><td class='err'>no arrays registered</td></tr>"; return; }
  var max = 1;
  arrays.forEach(function (a) {
    (a.nodes || []).forEach(function (n) { if (n.remote_miss > max) max = n.remote_miss; });
  });
  var nn = snap.nodes;
  var h = "<tr><th>array</th>";
  for (var n = 0; n < nn; n++) h += "<th>node " + n + "</th>";
  h += "<th>remote</th></tr>";
  arrays.forEach(function (a) {
    h += "<tr><td>" + a.name + "</td>";
    for (var n = 0; n < nn; n++) {
      var cell = (a.nodes || [])[n] || {};
      var v = cell.remote_miss || 0;
      var step = v <= 0 ? -1 : Math.min(RAMP.length - 1,
        Math.floor(Math.sqrt(v / max) * RAMP.length));
      var bg = step < 0 ? "transparent" : RAMP[step];
      var ink = step >= 4 ? "#ffffff" : "var(--text-primary)";
      h += "<td class='cell' style='background:" + bg + ";color:" + ink + "' title='" +
        a.name + " node " + n + ": " + fmt(v) + " remote, " + fmt(cell.local_miss || 0) +
        " local, " + fmt(cell.served_remote || 0) + " served'>" + fmt(v) + "</td>";
    }
    h += "<td>" + fmt(a.remote_miss) + "</td></tr>";
  });
  t.innerHTML = h;
}

function renderSpark(series) {
  var rows = series.rows || [];
  var vals = rows.map(function (r) { return (r.events && r.events["l2-miss-remote"]) || 0; });
  var svg = document.getElementById("spark");
  var w = 640, hgt = 60, max = Math.max.apply(null, [1].concat(vals));
  var pts = vals.map(function (v, i) {
    var x = vals.length < 2 ? 0 : i * w / (vals.length - 1);
    return x.toFixed(1) + "," + (hgt - 2 - (hgt - 6) * v / max).toFixed(1);
  });
  svg.innerHTML = "<polyline fill='none' stroke='var(--cat-compute)' stroke-width='2' points='" +
    pts.join(" ") + "'/>";
  document.getElementById("sparkmax").textContent =
    rows.length + " samples, peak " + fmt(max) + " remote misses/sample";
}

// The local -serve endpoint returns a {v, sample_cycles, rows} document;
// the service's /jobs/{id}/series streams raw JSONL rows. Accept both.
function parseSeries(text) {
  text = text.trim();
  if (!text) return {rows: []};
  try {
    var doc = JSON.parse(text);
    return doc.rows ? doc : {rows: [doc]};
  } catch (e) {
    return {rows: text.split("\n").map(function (l) { return JSON.parse(l); })};
  }
}

var stopped = false;
function tick() {
  fetch("snapshot").then(function (r) { return r.json(); }).then(function (snap) {
    renderMeta(snap);
    renderRegions(snap);
    renderHeat(snap);
    if (snap.done) stopped = true;
    return fetch("series?nofollow=1").then(function (r) { return r.text(); })
      .then(function (text) { renderSpark(parseSeries(text)); });
  }).catch(function (err) {
    document.getElementById("meta").textContent = "fetch failed: " + err;
  }).then(function () {
    // One more paint after the run finishes, then stop polling.
    if (!stopped) setTimeout(tick, 1000);
  });
}
tick();
</script>
</body>
</html>
`
