"""Writes a Dataset as the CSV that ``load_csv`` reads back."""
import csv


def write_dataset_csv(dataset, path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [dataset.label_name])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
