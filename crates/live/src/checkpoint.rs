//! Crash-safe snapshots of the live engine's detection state.
//!
//! A checkpoint is a small line-oriented text file:
//!
//! ```text
//! airguard.live.checkpoint.v1
//! {"station":3,"kind":"cusum","score":12.5,"observations":41,"flagged":0}
//! {"station":7,"kind":"window","diffs":[4,-1.5],"observations":40,"flagged":1}
//! {"consumed":81,"elapsed_us":902000,"counters":{"live.quarantined":2}}
//! end f00dfeed01234567 4
//! ```
//!
//! One line per station (sorted by id), then a meta line, then a footer
//! carrying the FNV-1a hash of everything above it plus the line count.
//! Writes go through [`airguard_obs::atomic_write`]: a uniquely named
//! `.tmp` sibling is synced and published with an atomic rename followed
//! (on Unix) by a sync of the directory, so a crash mid-write leaves at
//! most a stray temp file — the previous `.ckpt` stays intact — and a
//! published snapshot stays published. Restore walks `*.ckpt` files
//! newest first and takes the first one whose footer validates: torn,
//! truncated, or bit-flipped snapshots are skipped with a warning, not
//! trusted and not fatal.
//!
//! Floats are written in Rust's shortest-round-trip form and read back
//! by [`crate::json`], so export → write → load → restore reproduces
//! detector state bit-for-bit — the foundation of the byte-identical
//! kill/restart guarantee.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use airguard_core::DetectorState;
use airguard_obs::{atomic_write, fnv1a_hex};

use crate::json::JsonValue;

/// First line of every checkpoint file.
pub const HEADER: &str = "airguard.live.checkpoint.v1";

/// One station's share of a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct StationRecord {
    /// Station id (the `src` of its observations).
    pub station: u32,
    /// Exported detector internals.
    pub state: DetectorState,
    /// Observations this station's detector has consumed.
    pub observations: u64,
    /// Times this station has been flagged as misbehaving.
    pub flagged: u64,
}

/// A complete engine snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// Feed records consumed (valid + quarantined) when the snapshot
    /// was taken; also the resume point for replay restore.
    pub consumed: u64,
    /// Largest observation timestamp processed so far.
    pub elapsed_us: u64,
    /// Engine counters at snapshot time (the `live.*` namespace).
    pub counters: BTreeMap<String, u64>,
    /// Per-station detector state, sorted by station id.
    pub stations: Vec<StationRecord>,
}

fn f64_json(value: f64) -> String {
    // Shortest-round-trip decimal; detector state is always finite
    // (scores and sums of finite slot counts), but guard anyway since
    // `null` here would poison the file.
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn station_line(record: &StationRecord) -> String {
    let mut line = String::from("{\"station\":");
    line.push_str(&record.station.to_string());
    line.push_str(",\"kind\":\"");
    line.push_str(record.state.kind());
    line.push('"');
    match &record.state {
        DetectorState::Window { diffs } => {
            line.push_str(",\"diffs\":[");
            for (i, diff) in diffs.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&f64_json(*diff));
            }
            line.push(']');
        }
        DetectorState::Cusum { score } => {
            line.push_str(",\"score\":");
            line.push_str(&f64_json(*score));
        }
        DetectorState::Cw {
            assigned_sum,
            observed_sum,
            samples,
        } => {
            line.push_str(",\"assigned_sum\":");
            line.push_str(&f64_json(*assigned_sum));
            line.push_str(",\"observed_sum\":");
            line.push_str(&f64_json(*observed_sum));
            line.push_str(",\"samples\":");
            line.push_str(&samples.to_string());
        }
    }
    line.push_str(",\"observations\":");
    line.push_str(&record.observations.to_string());
    line.push_str(",\"flagged\":");
    line.push_str(&record.flagged.to_string());
    line.push('}');
    line
}

fn parse_station_line(value: &JsonValue) -> Result<StationRecord, String> {
    let station = value
        .get("station")
        .and_then(JsonValue::as_u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or("missing or out-of-range `station`")?;
    let kind = value
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or("missing `kind`")?;
    let state = match kind {
        "window" => {
            let diffs = value
                .get("diffs")
                .and_then(JsonValue::as_arr)
                .ok_or("missing `diffs`")?
                .iter()
                .map(|v| v.as_f64().ok_or("non-finite window diff"))
                .collect::<Result<Vec<f64>, _>>()?;
            DetectorState::Window { diffs }
        }
        "cusum" => DetectorState::Cusum {
            score: value
                .get("score")
                .and_then(JsonValue::as_f64)
                .ok_or("missing or non-finite `score`")?,
        },
        "cw" => DetectorState::Cw {
            assigned_sum: value
                .get("assigned_sum")
                .and_then(JsonValue::as_f64)
                .ok_or("missing or non-finite `assigned_sum`")?,
            observed_sum: value
                .get("observed_sum")
                .and_then(JsonValue::as_f64)
                .ok_or("missing or non-finite `observed_sum`")?,
            samples: value
                .get("samples")
                .and_then(JsonValue::as_u64)
                .ok_or("missing `samples`")?,
        },
        other => return Err(format!("unknown detector kind `{other}`")),
    };
    Ok(StationRecord {
        station,
        state,
        observations: value
            .get("observations")
            .and_then(JsonValue::as_u64)
            .ok_or("missing `observations`")?,
        flagged: value
            .get("flagged")
            .and_then(JsonValue::as_u64)
            .ok_or("missing `flagged`")?,
    })
}

impl Checkpoint {
    /// Serializes the snapshot to its full file image.
    #[must_use]
    pub fn to_file_image(&self) -> String {
        let mut body = String::new();
        body.push_str(HEADER);
        body.push('\n');
        for record in &self.stations {
            body.push_str(&station_line(record));
            body.push('\n');
        }
        body.push_str("{\"consumed\":");
        body.push_str(&self.consumed.to_string());
        body.push_str(",\"elapsed_us\":");
        body.push_str(&self.elapsed_us.to_string());
        body.push_str(",\"counters\":{");
        for (i, (key, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push('"');
            airguard_obs::escape_into(key, &mut body);
            body.push_str("\":");
            body.push_str(&value.to_string());
        }
        body.push_str("}}\n");
        let digest = fnv1a_hex(body.as_bytes());
        let nlines = body.lines().count();
        format!("{body}end {digest} {nlines}\n")
    }

    /// Parses and validates a file image; any corruption (torn footer,
    /// bad hash, wrong line count, malformed line) is an error.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let stripped = text.strip_suffix('\n').ok_or("missing final newline")?;
        let (body, footer) = match stripped.rfind('\n') {
            Some(split) => (&text[..=split], &stripped[split + 1..]),
            None => return Err("missing footer".to_owned()),
        };
        let mut parts = footer.split(' ');
        let (tag, digest, nlines) = (parts.next(), parts.next(), parts.next());
        if tag != Some("end") || parts.next().is_some() {
            return Err("malformed footer".to_owned());
        }
        let digest = digest.ok_or("footer missing digest")?;
        let nlines: usize = nlines
            .and_then(|n| n.parse().ok())
            .ok_or("footer missing line count")?;
        if fnv1a_hex(body.as_bytes()) != digest {
            return Err("body digest mismatch".to_owned());
        }
        let lines: Vec<&str> = body.lines().collect();
        if lines.len() != nlines {
            return Err(format!(
                "line count mismatch: footer says {nlines}, body has {}",
                lines.len()
            ));
        }
        let (&header, rest) = lines.split_first().ok_or("empty body")?;
        if header != HEADER {
            return Err(format!("unknown header `{header}`"));
        }
        let (&meta_line, station_lines) = rest.split_last().ok_or("missing meta line")?;
        let meta = JsonValue::parse(meta_line).map_err(|e| format!("meta line: {e}"))?;
        let consumed = meta
            .get("consumed")
            .and_then(JsonValue::as_u64)
            .ok_or("meta missing `consumed`")?;
        let elapsed_us = meta
            .get("elapsed_us")
            .and_then(JsonValue::as_u64)
            .ok_or("meta missing `elapsed_us`")?;
        let mut counters = BTreeMap::new();
        if let Some(JsonValue::Obj(map)) = meta.get("counters") {
            for (key, value) in map {
                let count = value
                    .as_u64()
                    .ok_or_else(|| format!("counter `{key}` is not a u64"))?;
                counters.insert(key.clone(), count);
            }
        } else {
            return Err("meta missing `counters`".to_owned());
        }
        let mut stations = Vec::with_capacity(station_lines.len());
        let mut last_station: Option<u32> = None;
        for (i, line) in station_lines.iter().enumerate() {
            let value =
                JsonValue::parse(line).map_err(|e| format!("station line {}: {e}", i + 1))?;
            let record =
                parse_station_line(&value).map_err(|e| format!("station line {}: {e}", i + 1))?;
            if last_station.is_some_and(|prev| prev >= record.station) {
                return Err("station lines out of order".to_owned());
            }
            last_station = Some(record.station);
            stations.push(record);
        }
        Ok(Checkpoint {
            consumed,
            elapsed_us,
            counters,
            stations,
        })
    }

    /// Writes the snapshot into `dir` as `ckpt-<consumed>.ckpt` through
    /// [`atomic_write`] (temp file, fsync, rename, directory sync).
    /// Returns the final path.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("ckpt-{:012}.ckpt", self.consumed));
        atomic_write(&path, self.to_file_image().as_bytes())?;
        Ok(path)
    }

    /// Loads the newest valid checkpoint under `dir`. Invalid files are
    /// skipped and reported in the warning list; an empty or missing
    /// directory yields `None` (cold start).
    pub fn load_latest(dir: &Path) -> (Option<(Checkpoint, PathBuf)>, Vec<String>) {
        let mut warnings = Vec::new();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return (None, warnings);
        };
        let mut candidates: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "ckpt"))
            .collect();
        // Names embed zero-padded `consumed`, so lexicographic order is
        // chronological order; walk newest first.
        candidates.sort();
        for path in candidates.into_iter().rev() {
            let text = match std::fs::read(&path) {
                Ok(bytes) => match String::from_utf8(bytes) {
                    Ok(text) => text,
                    Err(_) => {
                        warnings.push(format!("{}: not UTF-8", path.display()));
                        continue;
                    }
                },
                Err(e) => {
                    warnings.push(format!("{}: {e}", path.display()));
                    continue;
                }
            };
            match Checkpoint::parse(&text) {
                Ok(checkpoint) => return (Some((checkpoint, path)), warnings),
                Err(e) => warnings.push(format!("{}: {e}", path.display())),
            }
        }
        (None, warnings)
    }
}

#[cfg(test)]
mod tests {
    use super::{Checkpoint, StationRecord};
    use airguard_core::DetectorState;
    use std::collections::BTreeMap;

    fn sample() -> Checkpoint {
        Checkpoint {
            consumed: 81,
            elapsed_us: 902_000,
            counters: BTreeMap::from([
                ("live.observations".to_owned(), 79),
                ("live.quarantined".to_owned(), 2),
            ]),
            stations: vec![
                StationRecord {
                    station: 3,
                    state: DetectorState::Cusum { score: 12.5 },
                    observations: 41,
                    flagged: 0,
                },
                StationRecord {
                    station: 7,
                    state: DetectorState::Window {
                        diffs: vec![4.0, -1.5, 0.300_000_000_000_000_04],
                    },
                    observations: 38,
                    flagged: 1,
                },
                StationRecord {
                    station: 9,
                    state: DetectorState::Cw {
                        assigned_sum: 120.25,
                        observed_sum: 60.125,
                        samples: 17,
                    },
                    observations: 17,
                    flagged: 2,
                },
            ],
        }
    }

    #[test]
    fn round_trips_every_detector_kind_exactly() {
        let original = sample();
        let image = original.to_file_image();
        let restored = Checkpoint::parse(&image).expect("valid image");
        assert_eq!(restored, original);
        // Serialization is canonical: a second trip is byte-identical.
        assert_eq!(restored.to_file_image(), image);
    }

    #[test]
    fn write_and_load_latest_pick_the_newest_valid_file() {
        let dir = std::env::temp_dir().join(format!("airguard-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let old = Checkpoint {
            consumed: 40,
            ..sample()
        };
        let new = sample();
        old.write(&dir).expect("write old");
        new.write(&dir).expect("write new");
        let (loaded, warnings) = Checkpoint::load_latest(&dir);
        let (checkpoint, path) = loaded.expect("a valid checkpoint");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(checkpoint.consumed, 81);
        assert!(path.ends_with("ckpt-000000000081.ckpt"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupted_files_fall_back_to_the_previous_good_snapshot() {
        let dir = std::env::temp_dir().join(format!("airguard-ckpt-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let good = Checkpoint {
            consumed: 40,
            ..sample()
        };
        good.write(&dir).expect("write good");

        // Torn write: newest file truncated mid-body.
        let image = sample().to_file_image();
        std::fs::write(
            dir.join("ckpt-000000000081.ckpt"),
            &image[..image.len() / 2],
        )
        .expect("write torn");
        // Bit flip inside an even newer file.
        let mut flipped = sample().to_file_image().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(dir.join("ckpt-000000000099.ckpt"), &flipped).expect("write flipped");

        let (loaded, warnings) = Checkpoint::load_latest(&dir);
        let (checkpoint, _path) = loaded.expect("fallback snapshot");
        assert_eq!(checkpoint.consumed, 40);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn empty_directory_is_a_cold_start() {
        let dir = std::env::temp_dir().join(format!("airguard-ckpt-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (loaded, warnings) = Checkpoint::load_latest(&dir);
        assert!(loaded.is_none());
        assert!(warnings.is_empty());
    }

    #[test]
    fn footer_tampering_is_rejected() {
        let image = sample().to_file_image();
        assert!(Checkpoint::parse(&image.replace("end ", "fin ")).is_err());
        assert!(Checkpoint::parse(image.trim_end()).is_err(), "no newline");
        let wrong_count = {
            let mut lines: Vec<&str> = image.lines().collect();
            let footer = lines.pop().expect("footer");
            let mut parts: Vec<&str> = footer.split(' ').collect();
            parts[2] = "99";
            let patched = parts.join(" ");
            format!("{}\n{patched}\n", lines.join("\n"))
        };
        assert!(Checkpoint::parse(&wrong_count).is_err());
    }
}
