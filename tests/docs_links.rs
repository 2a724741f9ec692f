//! Link checker for the operator docs: every relative markdown link in
//! README.md, the top-level markdown files, and docs/*.md must point at
//! a file (or directory) that exists in the repository. Anchors
//! (`#section`) and absolute URLs are out of scope — this is about
//! cross-references between committed files rotting when one is renamed.
//!
//! The metric catalog is checked the same way: the metric tables in
//! docs/*.md must match the serve metric family table, row for family.

use chemcost::serve::metrics::{Labels, FAMILIES};
use std::path::{Path, PathBuf};

/// Repository root (this test compiles in the root package).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The markdown files whose links we police.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files: Vec<PathBuf> = ["README.md", "ROADMAP.md", "EXPERIMENTS.md", "CHANGES.md"]
        .iter()
        .map(|f| root.join(f))
        .filter(|p| p.exists())
        .collect();
    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    docs.sort();
    files.append(&mut docs);
    assert!(files.len() >= 6, "expected README + docs/*.md, found {files:?}");
    files
}

/// Extract `(link_target, line_number)` pairs from inline markdown
/// links `[text](target)`. Skips fenced code blocks and inline code
/// spans, where brackets and parens are code, not links.
fn extract_links(text: &str) -> Vec<(String, usize)> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut in_code = false;
        let mut cleaned = String::new();
        for c in line.chars() {
            if c == '`' {
                in_code = !in_code;
            } else if !in_code {
                cleaned.push(c);
            }
        }
        let mut i = 0;
        while let Some(open) = cleaned[i..].find("](") {
            let close_bracket = i + open;
            let start = close_bracket + 2;
            let Some(close) = cleaned[start..].find(')') else { break };
            let target = &cleaned[start..start + close];
            // Only count it if the preceding text actually contains a
            // matching '[' — crude, but errs toward false negatives.
            if cleaned[..close_bracket].contains('[') {
                links.push((target.to_string(), lineno + 1));
            }
            i = start + close + 1;
        }
    }
    links
}

/// A link is checkable when it is a relative path into the repository.
fn relative_target(target: &str) -> Option<&str> {
    let target = target.split_once(' ').map_or(target, |(path, _title)| path);
    if target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
        || target.is_empty()
    {
        return None;
    }
    // Strip a trailing anchor: FILE.md#section checks FILE.md.
    Some(target.split('#').next().unwrap_or(target))
}

#[test]
fn relative_links_in_docs_resolve() {
    let root = repo_root();
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        let base = file.parent().unwrap_or(Path::new("."));
        for (target, line) in extract_links(&text) {
            let Some(path) = relative_target(&target) else { continue };
            checked += 1;
            let resolved = if let Some(stripped) = path.strip_prefix('/') {
                root.join(stripped)
            } else {
                base.join(path)
            };
            if !resolved.exists() {
                broken.push(format!(
                    "{}:{line}: link `{target}` → missing {}",
                    file.display(),
                    resolved.display()
                ));
            }
        }
    }
    assert!(checked >= 10, "only {checked} relative links found — the extractor is likely broken");
    assert!(broken.is_empty(), "broken doc links:\n{}", broken.join("\n"));
}

#[test]
fn the_serving_doc_is_cross_linked() {
    // The serving data plane's operator doc must be reachable from the
    // entry points an operator actually reads.
    let root = repo_root();
    for from in ["README.md", "docs/ARCHITECTURE.md", "docs/ROBUSTNESS.md", "docs/OBSERVABILITY.md"]
    {
        let text = std::fs::read_to_string(root.join(from)).expect(from);
        assert!(
            text.contains("SERVING.md"),
            "{from} does not link to the serving data-plane doc (SERVING.md)"
        );
    }
}

#[test]
fn extractor_finds_links_and_skips_code() {
    let md = "\
see [the doc](docs/SERVING.md) and [site](https://example.com)\n\
```\n[not a link](nope.md)\n```\n\
inline `[also not](nope.md)` code\n\
[anchored](docs/SERVING.md#tuning)\n";
    let links = extract_links(md);
    let targets: Vec<&str> = links.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(
        targets,
        ["docs/SERVING.md", "https://example.com", "docs/SERVING.md#tuning"],
        "{links:?}"
    );
    assert_eq!(relative_target("docs/SERVING.md#tuning"), Some("docs/SERVING.md"));
    assert_eq!(relative_target("https://example.com"), None);
    assert_eq!(relative_target("#local"), None);
}

/// Metric-table rows of docs/*.md: `(family name, row, file)` for every
/// table row whose first cell is a backticked `chemcost_*` name (a label
/// set such as `{model,machine}` after the name is not part of it).
fn metric_rows() -> Vec<(String, String, String)> {
    let mut rows = Vec::new();
    for file in doc_files() {
        if !file.parent().is_some_and(|dir| dir.ends_with("docs")) {
            continue;
        }
        let text = std::fs::read_to_string(&file).expect("doc file");
        for line in text.lines() {
            let Some(cell) = line.strip_prefix("| `chemcost_") else { continue };
            let rest: String =
                cell.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
            rows.push((format!("chemcost_{rest}"), line.to_string(), file.display().to_string()));
        }
    }
    rows
}

#[test]
fn metric_tables_match_the_family_table() {
    let rows = metric_rows();
    let mut problems = Vec::new();
    for fam in FAMILIES {
        if !rows.iter().any(|(name, ..)| name == fam.name) {
            problems.push(format!("{} has no row in a docs/*.md metric table", fam.name));
        }
    }
    for (name, _, file) in &rows {
        if !FAMILIES.iter().any(|fam| fam.name == name) {
            problems.push(format!("{file}: row for {name}, which is not a metric family"));
        }
    }
    assert!(problems.is_empty(), "metric docs drifted:\n{}", problems.join("\n"));
}

#[test]
fn metric_rows_list_every_label_value() {
    let rows = metric_rows();
    let mut problems = Vec::new();
    for fam in FAMILIES {
        let Labels::Enum(key, values) = fam.labels else { continue };
        let text: String = rows
            .iter()
            .filter(|(name, ..)| name == fam.name)
            .map(|(_, row, _)| row.as_str())
            .collect();
        for value in values {
            if !text.contains(&format!("`{value}`")) && !text.contains(&format!("\"{value}\"")) {
                problems.push(format!("{} row omits {key} value `{value}`", fam.name));
            }
        }
    }
    assert!(problems.is_empty(), "metric docs drifted:\n{}", problems.join("\n"));
}
