//! Model weight persistence.
//!
//! Layers derive `serde`; this module adds small helpers for saving and
//! loading any serializable model as pretty JSON, plus a versioned envelope
//! so stale weight files fail loudly instead of silently misbehaving.

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// Format version written into every weight file.
pub const WEIGHTS_VERSION: u32 = 1;

/// Envelope wrapping a serialized model with format metadata.
#[derive(Serialize, Deserialize)]
struct Envelope<T> {
    version: u32,
    kind: String,
    model: T,
}

/// Saves a model to `path` as JSON with a version/kind envelope.
pub fn save_model<T: Serialize>(model: &T, kind: &str, path: &Path) -> io::Result<()> {
    let env = Envelope {
        version: WEIGHTS_VERSION,
        kind: kind.to_string(),
        model,
    };
    let json =
        serde_json::to_string(&env).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    fs::write(path, json)
}

/// Loads a model previously written by [`save_model`], validating both the
/// format version and the model kind.
pub fn load_model<T: DeserializeOwned>(kind: &str, path: &Path) -> io::Result<T> {
    let json = fs::read_to_string(path)?;
    let env: Envelope<T> =
        serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if env.version != WEIGHTS_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "weight file version {} != supported {}",
                env.version, WEIGHTS_VERSION
            ),
        ));
    }
    if env.kind != kind {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "weight file holds a '{}' model, expected '{kind}'",
                env.kind
            ),
        ));
    }
    Ok(env.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::init::Initializer;

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("xatu_nn_serialize_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dense.json");
        let mut init = Initializer::new(1);
        let model = Dense::new(3, 2, &mut init);
        save_model(&model, "dense", &path).unwrap();
        let mut back: Dense = load_model("dense", &path).unwrap();
        back.ensure_grads();
        assert_eq!(
            model.forward(&[1.0, 2.0, 3.0]),
            back.forward(&[1.0, 2.0, 3.0])
        );
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let dir = std::env::temp_dir().join("xatu_nn_serialize_test2");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dense.json");
        let mut init = Initializer::new(1);
        let model = Dense::new(2, 2, &mut init);
        save_model(&model, "dense", &path).unwrap();
        let res: io::Result<Dense> = load_model("lstm", &path);
        assert!(res.is_err());
    }

    #[test]
    fn missing_file_errors() {
        let res: io::Result<Dense> = load_model("dense", Path::new("/nonexistent/x.json"));
        assert!(res.is_err());
    }
}
