//! Atomic, durable, tamper-evident JSON persistence.
//!
//! Three layers, each usable on its own:
//!
//! * [`fnv1a_64`] — the FNV-1a content checksum used across the
//!   workspace's durability envelope, and [`Fnv1a`], its streaming
//!   form;
//! * [`write_atomic`] — crash-safe file replacement: write to a
//!   temporary file in the same directory, `fsync` the file, `rename`
//!   over the destination, then `fsync` the directory so the rename
//!   itself is durable. A reader never observes a torn destination file
//!   — it sees either the old content or the new content in full;
//! * [`seal`] / [`unseal`] — a checksummed envelope
//!   `{"format","version","checksum","payload"}` around any [`Json`]
//!   payload. [`unseal`] re-serializes the parsed payload with the
//!   byte-stable writer and verifies the FNV checksum, so a flipped
//!   byte, truncated tail, or hand-edited file is detected instead of
//!   silently loading garbage.
//!
//! The envelope relies on the workspace writer's byte-stability
//! guarantee (save → load → save is byte-identical); documents produced
//! by other writers will fail the checksum and are treated as corrupt,
//! which is the correct behavior for self-produced checkpoint files.

use std::io;
use std::path::Path;

use crate::schema::Obj;
use crate::{fsio, Json, Map};

/// Envelope magic string; bump [`ENVELOPE_VERSION`] on layout changes.
pub const ENVELOPE_FORMAT: &str = "apots-envelope";
/// Current envelope layout version.
pub const ENVELOPE_VERSION: u64 = 1;

/// FNV-1a 64-bit hash — the workspace's content checksum.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Streaming [`fnv1a_64`]: feeding a byte sequence in any number of
/// pieces yields the hash of the whole sequence, so content can be
/// hashed where it lives instead of being rendered into one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty-input state (the FNV-1a 64 offset basis).
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Appends `bytes` to the hashed sequence.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Atomically and durably replaces `path` with `contents`.
///
/// Write-to-temp + fsync + rename + directory fsync: after a crash at
/// any point, `path` holds either its previous content or `contents`,
/// never a prefix. The temporary file lives in the same directory (so
/// the rename cannot cross filesystems) and carries a `.tmp` suffix.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    // Each boundary routes through the injectable fs plane (`fsio`); with
    // no backend installed these are plain `std::fs` calls.
    if let Err(e) = fsio::write_file(&tmp_path, contents.as_bytes()) {
        let _ = fsio::remove_file(&tmp_path);
        return Err(e);
    }
    if let Err(e) = fsio::sync_file(&tmp_path) {
        let _ = fsio::remove_file(&tmp_path);
        return Err(e);
    }
    if let Err(e) = fsio::rename(&tmp_path, path) {
        let _ = fsio::remove_file(&tmp_path);
        return Err(e);
    }
    // Make the rename itself durable by syncing the containing directory
    // (best-effort: directory handles are not fsync-able everywhere).
    if let Some(d) = dir {
        let _ = fsio::sync_dir(d);
    }
    Ok(())
}

/// Wraps `payload` in the checksummed envelope.
///
/// The checksum covers the compact serialization of the payload, so any
/// in-flight mutation of the payload bytes is detectable by [`unseal`].
pub fn seal(payload: Json) -> Json {
    let checksum = fnv1a_64(payload.to_string().as_bytes());
    let mut root = Map::new();
    root.insert("format".to_string(), Json::from(ENVELOPE_FORMAT));
    root.insert("version".to_string(), Json::from(ENVELOPE_VERSION));
    root.insert(
        "checksum".to_string(),
        Json::from(format!("{checksum:016x}")),
    );
    root.insert("payload".to_string(), payload);
    Json::Obj(root)
}

/// Parses an envelope document and returns the verified payload.
///
/// # Errors
/// Returns a descriptive error when the document is not valid JSON
/// (e.g. a torn write), is not an envelope (a key missing, or one
/// [`seal`] never writes), declares an unknown version, or fails the
/// checksum (flipped byte, truncation that still parses, hand edits).
pub fn unseal(text: &str) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| format!("envelope: unparseable ({e})"))?;
    let env = Obj::new(&doc, "envelope")?.only("format version checksum payload")?;
    let format = env.req("format")?.str()?;
    if format != ENVELOPE_FORMAT {
        return Err(format!(
            "envelope: format = {format:?} not supported (valid: {ENVELOPE_FORMAT:?})"
        ));
    }
    let version = env.req("version")?.u64()?;
    if version != ENVELOPE_VERSION {
        return Err(format!(
            "envelope: version = {version} not supported (valid: {ENVELOPE_VERSION})"
        ));
    }
    let declared = env.req("checksum")?.str()?;
    let declared = u64::from_str_radix(declared, 16)
        .map_err(|e| format!("envelope: checksum = {declared:?} is not hex: {e}"))?;
    let payload = env.req("payload")?.value().clone();
    let actual = fnv1a_64(payload.to_string().as_bytes());
    if actual != declared {
        return Err(format!(
            "envelope: checksum mismatch (declared {declared:016x}, content {actual:016x})"
        ));
    }
    Ok(payload)
}

/// [`seal`] + [`write_atomic`]: durably persists a checksummed payload.
pub fn write_sealed(path: &Path, payload: Json) -> Result<(), String> {
    write_atomic(path, &seal(payload).to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads and [`unseal`]s a file written by [`write_sealed`].
pub fn read_sealed(path: &Path) -> Result<Json, String> {
    let text =
        fsio::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    unseal(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::fs;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("apots-atomic-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        // The streaming form gives the same hash however input is split.
        for cut in 0..=6 {
            let mut h = Fnv1a::default();
            h.write(&b"foobar"[..cut]);
            h.write(&b"foobar"[cut..]);
            assert_eq!(h.finish(), 0x85944171f73967e8, "split at {cut}");
        }
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = tmp_dir("replace");
        let path = dir.join("file.json");
        write_atomic(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = json!({"epoch": 3usize, "mse": 0.125f32, "tags": vec!["a", "b"]});
        let sealed = seal(payload.clone()).to_string();
        assert_eq!(unseal(&sealed).unwrap(), payload);
    }

    #[test]
    fn unseal_detects_flipped_byte() {
        let sealed = seal(json!({"value": 12345i64})).to_string();
        // Flip a digit inside the payload without breaking JSON syntax.
        let tampered = sealed.replace("12345", "12346");
        assert_ne!(sealed, tampered);
        let err = unseal(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn unseal_detects_truncation() {
        let sealed = seal(json!({"xs": (0..64).collect::<Vec<i32>>()})).to_string();
        for cut in [1, sealed.len() / 2, sealed.len() - 1] {
            assert!(
                unseal(&sealed[..cut]).is_err(),
                "accepted a {cut}-byte torn prefix"
            );
        }
    }

    #[test]
    fn unseal_rejects_foreign_documents() {
        for bad in [
            "{}",
            r#"{"format":"other","version":1,"checksum":"0","payload":null}"#,
            r#"{"format":"apots-envelope","version":99,"checksum":"0","payload":null}"#,
            r#"{"format":"apots-envelope","version":1,"checksum":"zz","payload":null}"#,
            "not json at all",
        ] {
            assert!(unseal(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unseal_refuses_keys_seal_never_writes() {
        let sealed = seal(json!({"k": 1i32})).to_string();
        let extra = sealed.replacen('{', r#"{"signed":true,"#, 1);
        assert_eq!(
            unseal(&extra).unwrap_err(),
            "envelope: unknown key \"signed\" (valid keys: format, version, checksum, payload)"
        );
    }

    #[test]
    fn write_read_sealed_roundtrip() {
        let dir = tmp_dir("sealed");
        let path = dir.join("ck.json");
        let payload = json!({"k": "v", "n": 7usize});
        write_sealed(&path, payload.clone()).unwrap();
        assert_eq!(read_sealed(&path).unwrap(), payload);
        let _ = fs::remove_dir_all(&dir);
    }
}
